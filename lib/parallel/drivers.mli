(** Parallel drivers for the study's techniques, dispatched from each
    technique's {e declared} parallel plan
    ({!Sct_explore.Strategy.sharding}) — the shape of the plan value, never
    the identity of the technique or its options, decides how a cell uses
    the pool. All plans produce statistics equal
    ([Sct_explore.Stats.equal]) to the sequential
    {!Sct_explore.Techniques.run} for every pool size:

    - [Sequential] (DFS, IPB, IDB and the bounding axes Fair, Length, IVB,
      ITB — plain, prefix-batched or partial-order-reduced): the cell runs
      {!Sct_explore.Techniques.run} on the calling domain. Splitting one
      tree walk across domains was measured slower than walking it on one
      domain, so these cells use a pool only by running beside other cells
      ({!Suite.run_all}).
    - [Shard_seed] (Rand, PCT, SURW): run [i] is a pure function of the
      campaign seed and [i]; the run range is sharded into contiguous
      per-worker slices and shard statistics are folded with
      [Sct_explore.Stats.merge] — first-bug indices are absolute, so the
      merge recovers the sequential first bug.
    - [Shard_runs] (MapleAlg): finite batches of independent runs execute
      in parallel and are committed and absorbed in batch order, truncated
      at the first bug.

    With a pool of size 1 every plan simply calls the sequential code. *)

val shard_ranges : shards:int -> n:int -> (int * int) list
(** Balanced contiguous shards covering [\[0, n)], at least one (possibly
    empty). Also used by the campaign runner ([lib/campaign]) to sub-shard
    a budget slice across the pool. *)

val merge_all : Sct_explore.Stats.t list -> Sct_explore.Stats.t
(** Fold shard statistics with [Sct_explore.Stats.merge].
    @raise Invalid_argument on the empty list. *)

val run :
  pool:Pool.t ->
  ?promote:(string -> bool) ->
  Sct_explore.Techniques.options ->
  Sct_explore.Techniques.t ->
  (unit -> unit) ->
  Sct_explore.Stats.t
(** Parallel equivalent of [Sct_explore.Techniques.run]. *)

val run_all :
  pool:Pool.t ->
  ?techniques:Sct_explore.Techniques.t list ->
  Sct_explore.Techniques.options ->
  (unit -> unit) ->
  Sct_race.Promotion.result * (Sct_explore.Techniques.t * Sct_explore.Stats.t) list
(** Parallel equivalent of [Sct_explore.Techniques.run_all]: sequential race
    detection, then each technique through {!run}. *)
