(** The result of running the full study pipeline on one benchmark: the
    inputs to every table and figure.

    With a [store], runs become incremental and crash-safe: cells
    (benchmark×technique pairs) already journalled are reused without
    re-execution, and every freshly computed cell is persisted the moment
    it finishes — so a killed campaign relaunched on the same store
    re-executes only the incomplete cells and produces rows identical to
    an uninterrupted run. *)

type row = {
  bench : Sctbench.Bench.t;
  racy_locations : int;  (** from the data-race detection phase *)
  results : (Sct_explore.Techniques.t * Sct_explore.Stats.t) list;
}

val stats_of : row -> Sct_explore.Techniques.t -> Sct_explore.Stats.t option
val found_by : row -> Sct_explore.Techniques.t -> bool

val keyed_cells :
  Sct_explore.Techniques.options ->
  Sctbench.Bench.t ->
  Sct_explore.Techniques.t list ->
  (Sct_explore.Techniques.t * string) list
(** The (technique, journal key) pairs of one benchmark's cells, in
    [techniques] order. *)

val run_benchmark :
  ?store:Sct_store.Db.t ->
  ?techniques:Sct_explore.Techniques.t list ->
  ?run:
    (?promote:(string -> bool) ->
    Sct_explore.Techniques.options ->
    Sct_explore.Techniques.t ->
    (unit -> unit) ->
    Sct_explore.Stats.t) ->
  Sct_explore.Techniques.options ->
  Sctbench.Bench.t ->
  row
(** Run (or, with [store], complete) one benchmark's cells: race
    detection, then each missing cell through [run], one after another
    ([Sct_explore.Techniques.run] by default; the CLI passes
    [Sct_parallel.Drivers.run ~pool], which shards a seed-sharded cell
    across the pool). When every cell is already journalled the program is
    not executed at all — not even the race-detection phase. *)

val run_all :
  ?store:Sct_store.Db.t ->
  ?techniques:Sct_explore.Techniques.t list ->
  ?progress:(Sctbench.Bench.t -> unit) ->
  Sct_explore.Techniques.options ->
  Sctbench.Bench.t list ->
  row list
