(** Per-technique exploration statistics: the columns of the paper's
    Table 3. *)

(** Sets of terminal schedules, used to count distinct schedules exactly
    even when shards of a campaign are merged.

    A schedule is kept as a packed key, not as a list: a thread id below
    255 takes one byte and a larger one nine (the byte 255, then the id's
    8 bytes big-endian), against a 3-word list cell per step. Keys compare
    as strings, and that order is [Stdlib.compare] on the schedules, so
    {!elements} and {!keys} list schedules in the same order as a set of
    lists would. *)
module Sched_set : sig
  type t

  val empty : t

  val add : Sct_core.Tid.t list -> t -> t
  (** @raise Invalid_argument on a negative thread id. *)

  val of_list : Sct_core.Tid.t list list -> t

  val elements : t -> Sct_core.Tid.t list list
  (** The schedules in increasing [Stdlib.compare] order. *)

  val cardinal : t -> int
  val union : t -> t -> t
  val equal : t -> t -> bool
  val subset : t -> t -> bool

  (** {2 Packed keys}

      The store codec writes and reads a set key by key, and a key thread
      id by thread id, so that no schedule is ever held as a list of
      thread ids. *)

  type key = private string
  (** One packed schedule. [String.compare] on keys is [Stdlib.compare] on
      the schedules they pack. *)

  val keys : t -> key list
  (** The keys in increasing order. *)

  val add_key : key -> t -> t

  val map_key : (Sct_core.Tid.t -> 'a) -> key -> 'a list
  (** [map_key f k] lists [f tid] for the thread ids [tid] of [k], in
      order, without building a list of the ids. *)

  val iter_key : (Sct_core.Tid.t -> unit) -> key -> unit
  (** [iter_key f k] applies [f] to the thread ids of [k] in order; it
      allocates nothing. *)

  val add_tid : Buffer.t -> Sct_core.Tid.t -> unit
  (** [add_tid buf tid] appends the packing of [tid] to [buf], which must
      hold nothing but packings appended since it was last cleared.
      @raise Invalid_argument on a negative thread id. *)

  val key_of_buffer : Buffer.t -> key
  (** The key of the thread ids appended to [buf] by {!add_tid}, in order.
      [buf] is cleared, so the caller may reuse it from key to key. *)

  val key_of_map : Buffer.t -> ('a -> Sct_core.Tid.t) -> 'a list -> key
  (** [key_of_map buf f l] packs the thread ids [f x] of the elements [x]
      of [l], in order: {!add_tid} on each, then {!key_of_buffer}. [buf]
      is cleared first.
      @raise Invalid_argument on a negative thread id. *)
end

type bug_witness = {
  w_bug : Sct_core.Outcome.bug;
  w_by : Sct_core.Tid.t;
  w_schedule : Sct_core.Schedule.t;
  w_pc : int;  (** preemption count of the witness schedule *)
  w_dc : int;  (** delay count of the witness schedule *)
}

type t = {
  technique : string;
  bound : int option;
      (** bound at which the bug was found, or the bound reached when the
          schedule limit was hit; [None] for unbounded techniques *)
  bound_complete : bool;
      (** the final bound level was fully explored (Figures 3/4 worst-case
          analysis is valid only in this case) *)
  to_first_bug : int option;
      (** number of terminal schedules explored up to and including the
          first buggy one *)
  total : int;  (** total terminal schedules explored (counted once each) *)
  new_at_bound : int;
      (** schedules with exactly the final bound (the paper's
          "# new schedules") *)
  buggy : int;  (** buggy schedules among [total] *)
  complete : bool;  (** the entire schedule space was explored *)
  hit_limit : bool;  (** stopped because the schedule limit was reached *)
  hit_deadline : bool;
      (** stopped because the wall-clock [--time-limit] deadline passed;
          never set on deadline-free campaigns, whose statistics are
          byte-for-byte deterministic *)
  first_bug : bug_witness option;
  n_threads : int;  (** max threads created over all runs *)
  max_enabled : int;  (** max simultaneously enabled threads over all runs *)
  max_sched_points : int;
      (** max number of decisions with >1 enabled thread in one run *)
  executions : int;
      (** real program executions, including bounded-level replays *)
  steps_executed : int;
      (** scheduler decisions actually paid for. Counted analytically: an
          unbatched campaign pays every decision of every terminal
          schedule; a prefix-batched campaign pays each shared prefix once
          per batch, so [steps_executed] drops by exactly [steps_saved].
          Both execution back-ends (fork server and re-execution fallback)
          report the same analytic value, keeping statistics byte-identical
          across platforms and [--jobs] values. *)
  steps_saved : int;
      (** decisions that prefix batching avoided re-executing; [0] on
          unbatched campaigns. Invariant:
          [steps_executed + steps_saved] equals the sum of terminal
          schedule lengths, independent of execution mode. *)
  por_pruned : int;
      (** schedules pruned by partial-order reduction: executions cut
          because every in-bound enabled thread was asleep (the branch
          only held interleavings equivalent to already-explored ones).
          [0] on campaigns without [--por]; summed by {!merge}; emitted by
          the store codec only when nonzero, so pre-POR journals and
          fingerprints round-trip byte-identically. *)
  cut_runs : int;
      (** executions abandoned mid-run by an execution-level bound (fair or
          length bounding): truncated prefixes, not terminal schedules, but
          charged against the budget alongside [total]. [0] for every other
          technique; summed by {!merge}; emitted by the store codec only
          when nonzero, so pre-existing journals and fingerprints
          round-trip byte-identically. *)
  distinct_schedules : Sched_set.t option;
      (** the distinct schedules among [total], when the technique tracks
          them (the random scheduler re-explores duplicates, paper §3);
          kept as a set so shard merges union rather than double-count.
          Every consumer reads only its size ({!distinct}, {!coverage}),
          but the journal stores the whole set, so it is kept packed at
          about one byte per step (see {!Sched_set}). *)
}

val found : t -> bool

val distinct : t -> int option
(** Number of distinct schedules, when tracked. *)

val coverage : t -> int
(** Distinct schedules when tracked, the counted total otherwise
    (systematic techniques count every schedule once, so the total {e is}
    the distinct count). The campaign scheduler's per-cell coverage
    signal. *)

val base : technique:string -> t
(** All-zero statistics to be folded over. *)

val observe_run : t -> Sct_core.Runtime.result -> t
(** Fold a run's structural aggregates (threads / enabled / points). *)

val merge : t -> t -> t
(** Combine the statistics of two disjoint shards of one campaign (seed
    ranges of a random technique, partitions of a schedule space, repeated
    multi-seed campaigns). Counters are summed, structural maxima taken,
    distinct-schedule sets unioned, and the first bug is the one with the
    smaller [to_first_bug] — provided shards report [to_first_bug] in a
    common (absolute) index space. Equal indices are resolved by a stable
    total order on witnesses, making [merge] associative and commutative,
    with [base ~technique] as identity:
    {ul
    {- [merge a (merge b c) = merge (merge a b) c]}
    {- [merge a b = merge b a]}
    {- [merge (base ~technique:a.technique) a = a]}} *)

val compare_witness : bug_witness -> bug_witness -> int
(** The stable total order on witnesses used to break [merge] ties. *)

val equal_witness : bug_witness -> bug_witness -> bool

val equal : t -> t -> bool
(** Structural equality; distinct-schedule sets are compared as sets. *)

val pp : Format.formatter -> t -> unit
