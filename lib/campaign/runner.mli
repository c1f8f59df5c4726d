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
      be banked in a [Stats.t], so each slice {e re-runs} the cumulative
      prefix, on one domain, with a geometrically growing schedule limit
      [min limit (max (consumed+slice) (2·consumed))] — the doubling keeps
      total re-execution within a constant factor of the final run, and
      the last slice runs with the cell's exact limit (or exhausts the
      bounded space below it), making the final statistics literally the
      one-shot statistics. Cumulative stats {e replace} the previous
      snapshot. Consumed budget counts cut runs (fair/length bounding
      charge abandoned executions to the budget without counting them),
      so a cut-heavy cell still advances every slice. MapleAlg's campaign
      length is intrinsic ([respects_limit = false]): it ignores the
      slice's limit, runs to completion in its first slice and journals
      that slice as done.

    Dispatch is from the declared parallel plan alone, like the parallel
    drivers — no per-technique case analysis. *)

type slice_result = {
  stats : Sct_explore.Stats.t;
      (** cumulative statistics after this slice — what gets journalled *)
  progress : Sct_store.Codec.progress;
      (** the matching slice-resume state ([p_done] marks the cell
          finished) *)
}

val run_slice :
  pool:Sct_parallel.Pool.t ->
  promote:(string -> bool) ->
  slice:int ->
  prev:Sct_store.Db.entry option ->
  Cell.t ->
  slice_result
(** Grant one budget slice to an unfinished cell. [prev] is the cell's
    latest journal record ([None] if never run); it must not be finished.
    @raise Invalid_argument if [slice < 1]. *)
