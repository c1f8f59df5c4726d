(** The persistent study store: an append-only journal of completed
    benchmark×technique cells plus a directory of bug-witness artifacts.

    On-disk layout under the store directory:
    {v
    DIR/journal.jsonl          one JSON record per completed cell
    DIR/artifacts/<md5>.sched  content-addressed bug witnesses
    v}

    Each journal record is a single line,
    [{"v":1,"key":K,"bench":B,"technique":T,"racy":N,"stats":S,"witness":W}],
    appended and flushed the moment the cell finishes, so a crash loses at
    most the record being written. Recovery is line-oriented: any line that
    does not decode — in particular a final record truncated by a crash —
    is skipped, and the next append re-establishes framing by inserting a
    newline first if the file does not end with one. Nothing already
    journalled is ever rewritten in place; {!compact} rewrites the whole
    journal atomically.

    Records go through {!Codec.add_stats} and {!Codec.read_stats}, so a
    distinct-schedule set is never held as a tree. Every line is printed
    into one buffer the store keeps, then written and flushed, so writing
    a record allocates no string; after a record above 1 MiB the buffer
    shrinks back to its initial 4 KiB. {!open_} reads the journal line by
    line, so it never holds more than one line of it.

    Cells are keyed by {!fingerprint}, a digest of the benchmark name, the
    technique and the semantically relevant exploration options. [jobs] is
    deliberately excluded: the parallel engine produces identical
    statistics for every value, so a store written with [--jobs 1] resumes
    cleanly under [--jobs 8] and vice versa.

    The campaign orchestrator ([lib/campaign]) journals a record per
    budget {e slice}: the same record shape plus a
    [{"progress":{"consumed":C,"slices":S,"done":D}}] field holding the
    slice-resumable campaign state. Records without the field (everything
    the one-shot study runner writes — its wire format is unchanged) and
    records whose progress says [done] are finished cells. The legacy
    lookups ({!find}, {!mem}, {!entries}, {!size}) see finished cells
    only — a resumed [run] treats an in-flight cell as missing and
    soundly re-executes it — while the [_any] variants expose every
    record, and a fully-run campaign store renders the same tables as one
    written by the one-shot study runner.

    A store handle must only be used from one domain (the driver's
    collector domain); the pool's domains, the collector among them,
    compute cells, and the collector journals them. *)

type entry = {
  e_bench : string;
  e_technique : string;
  e_racy : int;  (** racy locations reported by the detection phase *)
  e_stats : Sct_explore.Stats.t;
  e_witness : string option;  (** digest of the witness artifact, if any *)
  e_progress : Codec.progress option;
      (** slice-resumable campaign state; [None] on records written by the
          one-shot study runner *)
}

val finished : entry -> bool
(** A cell that needs no further exploration: no progress field, or a
    progress field marked done. *)

type t

val fingerprint :
  bench:string ->
  technique:string ->
  Sct_explore.Techniques.options ->
  string
(** The journal key of one cell. *)

val open_ : dir:string -> t
(** Open (creating if needed) the store at [dir] and recover the journal.
    Each key reads as its latest record that decodes, placed at its first
    record that decodes; the records between those two are never
    decoded. *)

val dir : t -> string
val artifacts_dir : t -> string

val is_empty : t -> bool
(** No records at all, finished or in-flight. *)

val size : t -> int
(** Number of {e finished} cells. *)

val mem : t -> string -> bool
val find : t -> string -> entry option
(** Finished cells only; an in-flight campaign record is reported absent. *)

val find_any : t -> string -> entry option
(** The latest record under a key, finished or in-flight. *)

val entries : t -> (string * entry) list
(** Finished cells, in journal order; a re-recorded key keeps its first
    position with the latest entry. *)

val entries_any : t -> (string * entry) list
(** Every cell, finished and in-flight, in journal order. *)

val record :
  ?progress:Codec.progress ->
  t ->
  key:string ->
  bench:string ->
  technique:string ->
  racy:int ->
  options:Sct_explore.Techniques.options ->
  Sct_explore.Stats.t ->
  unit
(** Persist one cell: write its bug-witness artifact (if the statistics
    carry one), then append and flush the journal record. With [progress]
    the record is a campaign slice snapshot (finished iff the progress says
    done); without it the cell is finished and the record is byte-identical
    to a one-shot run's. *)

val merge_from : t -> src:t -> unit
(** Fold every record of [src] into this store: witness artifacts are
    copied (content addressing makes the copy idempotent) and each of
    [src]'s records is appended unless the store already holds a record at
    least as advanced under the same key. Since every record of one
    fingerprint is a snapshot along the same deterministic trajectory, the
    per-key resolution is a total-order join — finished beats in-flight,
    then the larger banked budget wins — so merging stores is associative,
    commutative and idempotent: N worker stores fold into one in any order,
    and re-merging a store (or duplicated cells) changes nothing. *)

val compact : t -> unit
(** Atomically rewrite the journal keeping only the latest record per
    fingerprint (temp file in the store directory, then rename), dropping
    superseded campaign slices and any torn tail. The in-memory state is
    unchanged — a compacted store resumes exactly like the uncompacted
    one. *)

val close : t -> unit
