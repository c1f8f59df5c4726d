(** Parallel drivers for the study's techniques, dispatched from each
    technique's {e declared} parallel plan
    ({!Sct_explore.Strategy.sharding}) — the shape of the plan value, never
    the identity of the technique or its options, decides how a cell uses
    the pool. Both plans produce statistics equal
    ([Sct_explore.Stats.equal]) to the sequential
    {!Sct_explore.Techniques.run} for every pool size:

    - [Sequential] (DFS, IPB, IDB, the bounding axes Fair, Length, IVB,
      ITB — plain, prefix-batched or partial-order-reduced — and
      MapleAlg): the cell runs {!Sct_explore.Techniques.run} on the
      calling domain. Splitting one tree walk across domains, or sharding
      MapleAlg's handful of runs, was measured slower than one domain, so
      these cells use a pool only by running beside other cells
      ({!Suite.run_all}).
    - [Shard_seed] (Rand, PCT, SURW): run [i] is a pure function of the
      campaign seed and [i]; the run range is sharded into contiguous
      per-worker slices and shard statistics are folded with
      [Sct_explore.Stats.merge] — first-bug indices are absolute, so the
      merge recovers the sequential first bug.

    With a pool of size 1 every plan simply calls the sequential code. *)

val run :
  pool:Pool.t ->
  ?promote:(string -> bool) ->
  Sct_explore.Techniques.options ->
  Sct_explore.Techniques.t ->
  (unit -> unit) ->
  Sct_explore.Stats.t
(** Parallel equivalent of [Sct_explore.Techniques.run]. *)

val run_seeds :
  pool:Pool.t ->
  (lo:int -> hi:int -> Sct_explore.Stats.t) ->
  lo:int ->
  hi:int ->
  Sct_explore.Stats.t
(** [run_seeds ~pool shard ~lo ~hi] runs the seed range [\[lo, hi)] of a
    [Shard_seed] plan as one contiguous sub-range per pool worker and
    folds the results with [Sct_explore.Stats.merge]: equal to
    [shard ~lo ~hi], which it calls directly on a one-worker pool or a
    range of at most one run. {!run} calls it on [\[0, limit)]; the
    campaign runner ([lib/campaign]) calls it on each budget slice. *)
