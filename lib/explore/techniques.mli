(** Uniform front-end over the concurrency-testing techniques of the study
    (paper §5): the race-detection phase followed by any of the IPB, IDB,
    DFS, Rand and MapleAlg phases, plus the PCT and SURW extensions.

    Every technique is a {!Strategy.STRATEGY} value. The seven tree
    techniques are presets of one {!Bounded.t} record ({!bounds}), run by
    {!Bounded.strategy}; Rand, PCT and SURW are presets of one
    {!Seeded.t}, run by {!Seeded.strategy}. {!session} drives the
    registered strategy on a {!Driver} session, except that bounds with no
    filter and no footprint axis (DFS, IPB and IDB) may run on the
    partial-order reduction or the prefix-batching executor instead.
    {!run} is one advance of a session. *)

type t =
  | IPB
  | IDB
  | DFS
  | Rand
  | PCT
  | Maple
  | SURW
  | Fair  (** fair bounding over iterative preemption bounding *)
  | Length  (** length bounding over DFS *)
  | IVB  (** iterative variable bounding *)
  | ITB  (** iterative thread bounding *)

val all_paper : t list
(** The five techniques of Table 3, in the paper's column order. PCT and
    SURW are study extensions, excluded from the paper tables by default;
    so are the bounding axes Fair, Length, IVB and ITB. *)

val all : t list
(** Every technique, paper order first, then the extensions. *)

val name : t -> string
val of_name : string -> t option

val valid_names : string list
(** The canonical names accepted by {!of_name}, for CLI error messages. *)

val parse_list : ?default:t list -> string list -> (t list, string) result
(** Parse a [--technique] specification: each element may hold several
    comma-separated names; empty fragments (as in ["ipb,,rand"] or a
    trailing comma) are ignored. Duplicate names are {e deduplicated} —
    the first occurrence wins and order is preserved — so repeating a
    technique never runs it twice. An empty [specs] list yields [default]
    ([all_paper] unless overridden); a non-empty [specs] that reduces to
    zero names is an error (the flag was given but named nothing), as is
    any unknown name — both errors list every valid name. *)

type options = {
  limit : int;  (** schedule limit per technique (paper: 10,000) *)
  seed : int;
  max_steps : int;  (** per-execution live-lock guard *)
  race_runs : int;  (** data-race detection executions (paper: 10) *)
  pct_change_points : int;
  maple_profile_runs : int;
  time_limit : float option;
      (** wall-clock budget in seconds per campaign; [None] (the default)
          disables the deadline and keeps runs fully deterministic *)
  prefix_batch : bool;
      (** route the systematic tree walkers (DFS, IPB, IDB) through
          {!Prefix_exec}. Statistics are identical except
          [Stats.steps_executed] / [Stats.steps_saved], which count the
          shared prefix steps a sibling batch would not re-execute; the
          counts are analytic and the campaign runs no faster (see
          prefix_exec.mli). Other techniques are unaffected *)
  por : Por.mode option;
      (** compose the systematic tree walkers (DFS, IPB, IDB) with the
          bounded partial-order reduction of {!Por.walk}: sleep sets /
          DPOR with BPOR's conservative backtracking points under IPB/IDB
          bounds. Exclusive with [prefix_batch] — a POR cell always runs
          unbatched (visible as [Stats.steps_saved = 0]); other techniques
          are unaffected *)
  fair_bound : int;
      (** the Fair technique's yield-difference bound ([--fair-bound],
          default 5, dejafu's); other techniques ignore it *)
  length_bound : int;
      (** the Length technique's schedule-length bound ([--length-bound],
          default 250, dejafu's); other techniques ignore it *)
}

val default_options : options
(** [limit = 10_000; seed = 0; max_steps = 100_000; race_runs = 10;
    pct_change_points = 2; maple_profile_runs = 10; time_limit = None;
    prefix_batch = false; por = None; fair_bound = 5; length_bound = 250].
    How many domains run a study is the pool's business
    ([Sct_parallel.Pool]), not an option: statistics are identical for
    every pool size. *)

val deadline_of : options -> float option
(** The absolute deadline for a campaign starting now, from
    [options.time_limit]. *)

val bounds : options -> t -> Bounded.t option
(** The bounds preset of a tree technique: DFS has no axis; IPB, IDB, IVB
    and ITB iterate their axes; Fair is IPB plus the fair filter at
    [fair_bound], and Length is DFS plus the length filter at
    [length_bound]. [None] for Rand, PCT, MapleAlg and SURW. *)

val strategy :
  ?promote:(string -> bool) -> options -> t -> (unit -> unit) -> Strategy.t
(** The registered strategy of a technique under the given options — pure
    registration; all control flow lives in {!Driver}. A tree technique is
    {!Bounded.strategy} of its {!bounds}; Rand, PCT and SURW are
    {!Seeded.strategy} of {!Seeded.rand}, {!Seeded.pct} at
    [pct_change_points] and {!Seeded.surw}. *)

val sharding :
  ?promote:(string -> bool) ->
  options ->
  t ->
  (unit -> unit) ->
  Strategy.sharding
(** The declared parallel plan of a technique, dispatched by
    [Sct_parallel.Drivers] and the campaign runner from the plan's
    constructor alone: {!Seeded.sharding} for Rand, PCT and SURW, and
    {!Strategy.Sequential} for everything else: the tree walks (DFS, IPB,
    IDB, Fair, Length, IVB, ITB), whatever [prefix_batch] and [por] say,
    since {!run} honours both on one domain, and MapleAlg. *)

val session :
  ?promote:(string -> bool) ->
  options ->
  t ->
  (unit -> unit) ->
  limit:int ->
  Stats.t
(** [session o t program] sets one technique's campaign up and returns
    its advance: each call [~limit] continues the campaign up to that
    schedule limit ([options.limit] is ignored) and returns the
    statistics so far. Through non-decreasing limits, each call returns
    exactly what {!run} with [{o with limit}] returns (the session law of
    {!Driver.advance}); [options.time_limit] budgets every call afresh
    from its start. The shape of the {!bounds} picks the walk: the two
    options below restructure the tree, so they apply to bounds with no
    fair or length filter and no footprint axis — DFS, IPB and IDB:
    + with [options.por], such bounds run the {!Por.walk} reduction:
      fewer executions to the same bugs, [Stats.por_pruned] counting the
      sleep-pruned runs. POR takes precedence over [prefix_batch] (see
      por.mli's interaction contract);
    + otherwise, with [options.prefix_batch], they run through
      {!Prefix_exec}: same statistics, plus the step counters. This
      executor keeps no walk between calls, so each call re-runs the
      campaign from the root;
    + otherwise the technique's registered {!strategy} runs on
      {!Driver.advance}. *)

val run :
  ?promote:(string -> bool) -> options -> t -> (unit -> unit) -> Stats.t
(** Run one technique with an externally supplied promotion predicate
    (defaults to promoting nothing), budgeted by [options.limit] and
    [options.time_limit]: [session o t program ~limit:o.limit]. *)

val detect_races : options -> (unit -> unit) -> Sct_race.Promotion.result
(** Phase 1: the data-race detection phase. *)

val run_all :
  ?techniques:t list ->
  options ->
  (unit -> unit) ->
  Sct_race.Promotion.result * (t * Stats.t) list
(** The full per-benchmark pipeline: detect races, promote racy locations,
    then run each technique ([all_paper] by default). *)
