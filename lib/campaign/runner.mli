(** Slice-resumable execution of one cell.

    A campaign never runs a cell to completion in one go: it grants budget
    {e slices} and journals a snapshot after each, so a killed campaign
    loses at most one slice of work. The per-plan slice models keep
    the final statistics byte-identical to the one-shot
    [Sct_explore.Techniques.run] (and hence to the whole study pipeline):

    - [Shard_seed] (Rand, PCT, SURW): run [i] is a pure function of the
      campaign seed and [i], so a slice is the contiguous run range
      [\[consumed, consumed+slice)] and cumulative statistics fold with
      [Stats.merge] — exactly the contiguous-slice merge the parallel
      drivers already prove equal to the sequential run. A slice is
      itself sub-sharded across the pool
      ([Sct_parallel.Drivers.run_seeds]).
    - [Sequential] (DFS, IPB, IDB, the bounding axes Fair, Length, IVB,
      ITB, and MapleAlg): tree walks carry backtracking state that cannot
      be banked in a [Stats.t]. Each slice advances the cell's
      {!Sct_explore.Techniques.session}, on one domain, to a
      geometrically growing schedule limit
      [min limit (max (consumed+slice) (2·consumed))]; the last slice
      runs with the cell's exact limit (or exhausts the bounded space
      below it). By the session law, each slice's statistics are the
      one-shot statistics at its limit, so the final ones are literally
      the one-shot run's. Cumulative stats {e replace} the previous
      snapshot. Consumed budget counts cut runs (fair/length bounding
      charge abandoned executions to the budget without counting them),
      so a cut-heavy cell still advances every slice. MapleAlg's campaign
      length is intrinsic ([respects_limit = false]): it ignores the
      slice's limit, runs to completion in its first slice and journals
      that slice as done.

    {b Live sessions.} The store is the only durable state. A
    {!sessions} table keeps the session of each unfinished [Sequential]
    cell in memory between its slices, so the next slice continues the
    walk instead of re-running it from the root. The table is a cache: a
    slice uses a session only when it stands exactly where the journal
    does (its consumed budget equals [prev]'s), and otherwise starts a
    fresh one that re-runs the journalled prefix once, bounded by the
    doubling. Both paths journal identical records, so a restarted
    process, which starts with an empty table, resumes byte-identically.
    A prefix-batched cell keeps no walk and re-runs at every slice.

    Dispatch is from the declared parallel plan alone, like the parallel
    drivers — no per-technique case analysis. *)

type slice_result = {
  stats : Sct_explore.Stats.t;
      (** cumulative statistics after this slice — what gets journalled *)
  progress : Sct_store.Codec.progress;
      (** the matching slice-resume state ([p_done] marks the cell
          finished) *)
}

type sessions
(** The live sessions of unfinished [Sequential] cells, keyed by cell
    fingerprint. *)

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
    A [Sequential] cell's session is taken from [sessions] when it stands
    where [prev] does, and left there while the cell is unfinished.
    @raise Invalid_argument if [slice < 1]. *)
