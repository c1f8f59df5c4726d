type row = {
  bench : Sctbench.Bench.t;
  racy_locations : int;
  results : (Sct_explore.Techniques.t * Sct_explore.Stats.t) list;
}

let stats_of row t = List.assoc_opt t row.results

let found_by row t =
  match stats_of row t with
  | Some s -> Sct_explore.Stats.found s
  | None -> false

(* The (technique, journal key) pairs of one benchmark's cells. *)
let keyed_cells o (bench : Sctbench.Bench.t) techniques =
  List.map
    (fun t ->
      ( t,
        Sct_store.Db.fingerprint ~bench:bench.Sctbench.Bench.name
          ~technique:(Sct_explore.Techniques.name t) o ))
    techniques

let cached_racy db = function
  | (_, key) :: _ -> (
      match Sct_store.Db.find db key with
      | Some e -> Some e.Sct_store.Db.e_racy
      | None -> None)
  | [] -> None

let run_benchmark ?store ?(techniques = Sct_explore.Techniques.all_paper)
    ?(run = Sct_explore.Techniques.run) o (bench : Sctbench.Bench.t) =
  let program = bench.Sctbench.Bench.program in
  match store with
  | None ->
      let detection = Sct_explore.Techniques.detect_races o program in
      let promote = Sct_race.Promotion.promote detection in
      {
        bench;
        racy_locations = List.length detection.Sct_race.Promotion.racy;
        results = List.map (fun t -> (t, run ~promote o t program)) techniques;
      }
  | Some db ->
      let keyed = keyed_cells o bench techniques in
      let missing =
        List.exists (fun (_, key) -> not (Sct_store.Db.mem db key)) keyed
      in
      if not missing then
        (* every cell journalled: rebuild the row without touching the
           program (the detection phase ran when the cells were written,
           and its racy count rode along in each record) *)
        {
          bench;
          racy_locations = Option.value ~default:0 (cached_racy db keyed);
          results =
            List.map
              (fun (t, key) ->
                (t, (Option.get (Sct_store.Db.find db key)).Sct_store.Db.e_stats))
              keyed;
        }
      else begin
        let detection = Sct_explore.Techniques.detect_races o program in
        let promote = Sct_race.Promotion.promote detection in
        let racy = List.length detection.Sct_race.Promotion.racy in
        let results =
          List.map
            (fun (t, key) ->
              match Sct_store.Db.find db key with
              | Some e -> (t, e.Sct_store.Db.e_stats)
              | None ->
                  let s = run ~promote o t program in
                  Sct_store.Db.record db ~key ~bench:bench.Sctbench.Bench.name
                    ~technique:(Sct_explore.Techniques.name t) ~racy
                    ~options:o s;
                  (t, s))
            keyed
        in
        { bench; racy_locations = racy; results }
      end

let run_all ?store ?techniques ?(progress = fun _ -> ()) o benches =
  List.map
    (fun b ->
      progress b;
      run_benchmark ?store ?techniques o b)
    benches
