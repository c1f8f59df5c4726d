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

val extensions : row list -> Sct_explore.Techniques.t list
(** The study extensions some row ran, in the order PCT, SURW, Fair,
    Length, IVB, ITB: the columns the reports append after the paper's
    five. *)

val shape : row -> int * int * int
(** The benchmark's threads, most enabled threads and most scheduling
    points (Table 3's thr/en/pts): from the IDB cell when it ran, else
    from the first cell; zeros for a row with no cell. *)

(** One benchmark's cells, each looked up in the store once. *)
type cells =
  | Journalled of row
      (** Every cell is journalled: the row rebuilt from the records, with
          the racy count of the first one. *)
  | Missing of
      (Sct_explore.Techniques.t * string * Sct_store.Db.entry option) list
      (** Some cell still has to run, or there is no store: every cell's
          technique, journal key and finished record, in [techniques]
          order. *)

val lookup :
  ?store:Sct_store.Db.t ->
  Sct_explore.Techniques.options ->
  Sctbench.Bench.t ->
  Sct_explore.Techniques.t list ->
  cells

val record :
  ?store:Sct_store.Db.t ->
  Sct_explore.Techniques.options ->
  Sctbench.Bench.t ->
  racy:int ->
  key:string ->
  Sct_explore.Techniques.t ->
  Sct_explore.Stats.t ->
  unit
(** [record ?store o bench ~racy ~key t s] journals a freshly computed
    cell; without a store it does nothing. *)

val run_benchmark :
  ?store:Sct_store.Db.t ->
  ?techniques:Sct_explore.Techniques.t list ->
  ?fan_out:
    ((lo:int -> hi:int -> Sct_explore.Stats.t) ->
    lo:int ->
    hi:int ->
    Sct_explore.Stats.t) ->
  Sct_explore.Techniques.options ->
  Sctbench.Bench.t ->
  row
(** Run (or, with [store], complete) one benchmark's cells: race
    detection, then each missing cell through
    [Sct_explore.Techniques.run ?fan_out], one after another (the CLI
    passes [Sct_parallel.Drivers.run_seeds ~pool], which spreads a seeded
    cell's runs across the pool). When every cell is already journalled
    the program is not executed at all — not even the race-detection
    phase. *)

val run_all :
  ?store:Sct_store.Db.t ->
  ?techniques:Sct_explore.Techniques.t list ->
  ?progress:(Sctbench.Bench.t -> unit) ->
  Sct_explore.Techniques.options ->
  Sctbench.Bench.t list ->
  row list
