(** Whole-suite parallel execution.

    {!run_all} parallelises {e across} the suite (coarse: one pool job per
    benchmark for race detection, then one per benchmark x technique, each
    job running the ordinary sequential code). It produces rows identical
    to the sequential [Sct_report.Run_data.run_all] for every pool size,
    and falls back to that function when the pool has one worker. One
    benchmark's row with seed-sharded cells spread over the pool is
    [Sct_report.Run_data.run_benchmark ~run:(Drivers.run ~pool)].

    With a [store], {!run_all} honours the journal exactly like the
    sequential function: journalled cells are reused (never resubmitted as
    jobs), and each freshly computed cell is persisted — from the
    collector domain only — the moment its future is awaited. Since the
    journal key ignores [jobs] and the engine is deterministic for every
    pool size, a store written sequentially resumes under any [--jobs]
    value and vice versa. *)

val run_all :
  pool:Pool.t ->
  ?store:Sct_store.Db.t ->
  ?techniques:Sct_explore.Techniques.t list ->
  ?progress:(Sctbench.Bench.t -> unit) ->
  Sct_explore.Techniques.options ->
  Sctbench.Bench.t list ->
  Sct_report.Run_data.row list
(** Parallel equivalent of [Sct_report.Run_data.run_all]. [progress] is
    called once per benchmark, in suite order, when the row's jobs are about
    to be collected. *)
