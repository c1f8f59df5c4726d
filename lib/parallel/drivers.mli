(** How one seeded cell spreads over a domain pool.

    Every cell runs as a {!Sct_explore.Techniques.session}. A seeded
    session (Rand, PCT, SURW) runs each advance's run range through a
    fan-out function, and {!run_seeds} is the pool's: run [i] is a pure
    function of the campaign seed and [i], so the range splits into
    contiguous per-worker ranges whose statistics fold with
    [Sct_explore.Stats.merge] into exactly the sequential ones, first-bug
    indices being absolute. Every other cell ignores the fan-out and runs
    on the calling domain: a tree walk's backtracking state is one
    sequential thread of control, and MapleAlg's whole campaign (about
    ten profiling runs plus one forcing run per candidate) is too short
    to pay for dispatch, so these cells use a pool only by running beside
    other cells ({!Suite.run_all}). *)

val run_seeds :
  pool:Pool.t ->
  (lo:int -> hi:int -> Sct_explore.Stats.t) ->
  lo:int ->
  hi:int ->
  Sct_explore.Stats.t
(** [run_seeds ~pool run ~lo ~hi] runs the seed range [\[lo, hi)] as one
    contiguous sub-range per pool worker and folds the results with
    [Sct_explore.Stats.merge]: equal to [run ~lo ~hi], which it calls
    directly on a one-worker pool or a range of at most one run. Pass
    [~fan_out:(run_seeds ~pool)] to [Sct_explore.Techniques.run] or
    [Sct_explore.Techniques.session]; the campaign runner
    ([lib/campaign]) does so for every slice. *)
