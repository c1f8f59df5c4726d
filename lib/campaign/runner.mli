(** Slice-resumable execution of one cell.

    A campaign never runs a cell to completion in one go: it grants budget
    {e slices} and journals a snapshot after each, so a killed campaign
    loses at most one slice of work. Each slice advances the cell's
    {!Sct_explore.Techniques.session} to a target limit, so by the
    session law each slice's statistics are the one-shot
    [Sct_explore.Techniques.run]'s at that limit, and the last slice's are
    the one-shot run's (and hence the whole study pipeline's). The
    target depends on whether the cell is a tree walk
    ([Sct_explore.Techniques.bounds] is [Some]):

    - a tree walk (DFS, IPB, IDB and the bounding axes Fair, Length, IVB,
      ITB) grows its limit geometrically,
      [min limit (max (consumed+slice) (2·consumed))], and runs on one
      domain: its backtracking state cannot be banked in a [Stats.t];
    - every other cell takes [min limit (consumed+slice)]. A seeded cell
      (Rand, PCT, SURW) probes once per session, runs each slice's run
      range across the pool ([Sct_parallel.Drivers.run_seeds]) and merges
      it into its record. MapleAlg's campaign length is intrinsic
      ([respects_limit = false]): it ignores the limit, runs to completion
      in its first slice and journals that slice as done.

    Every cell journals [consumed = total + cut_runs] (fair and length
    bounding charge cut executions to the budget without counting them,
    so a cut-heavy cell still advances every slice) and is done when its
    budget did not stop it, a deadline did, or the target reached the
    cell's limit. A deadline thus finishes a cell where it stopped.

    {b Live sessions.} The store is the only durable state. A
    {!sessions} table keeps the session of each unfinished cell in memory
    between its slices, so the next slice continues the walk, and a
    seeded cell keeps its probe. The table is a cache: a slice uses a
    session only when it stands exactly where the journal does (its
    consumed budget equals [prev]'s), and otherwise starts a fresh one
    from [prev]'s record. A seeded session starts after that record and
    re-runs nothing; a tree walk starts at the root and re-runs the
    journalled prefix once, bounded by the doubling. Both paths journal
    identical records, so a restarted process, which starts with an empty
    table, resumes byte-identically. *)

type slice_result = {
  stats : Sct_explore.Stats.t;
      (** cumulative statistics after this slice — what gets journalled *)
  progress : Sct_store.Codec.progress;
      (** the matching slice-resume state ([p_done] marks the cell
          finished) *)
}

type sessions
(** The live sessions of unfinished cells, keyed by cell fingerprint. *)

val sessions : unit -> sessions
(** An empty table. *)

val run_slice :
  pool:Sct_parallel.Pool.t ->
  sessions:sessions ->
  promote:(string -> bool) ->
  slice:int ->
  prev:Sct_store.Db.entry option ->
  Cell.t ->
  slice_result
(** Grant one budget slice to an unfinished cell. [prev] is the cell's
    latest journal record ([None] if never run); it must not be finished.
    The cell's session is taken from [sessions] when it stands where
    [prev] does, and left there while the cell is unfinished.
    @raise Invalid_argument if [slice < 1]. *)
