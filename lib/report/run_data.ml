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

let extensions rows =
  List.filter
    (fun t -> List.exists (fun r -> stats_of r t <> None) rows)
    Sct_explore.Techniques.[ PCT; SURW; Fair; Length; IVB; ITB ]

let shape row =
  match (stats_of row Sct_explore.Techniques.IDB, row.results) with
  | Some s, _ | None, (_, s) :: _ ->
      ( s.Sct_explore.Stats.n_threads,
        s.Sct_explore.Stats.max_enabled,
        s.Sct_explore.Stats.max_sched_points )
  | None, [] -> (0, 0, 0)

type cells =
  | Journalled of row
  | Missing of
      (Sct_explore.Techniques.t * string * Sct_store.Db.entry option) list

let lookup ?store o (bench : Sctbench.Bench.t) techniques =
  let find key =
    match store with Some db -> Sct_store.Db.find db key | None -> None
  in
  let cells =
    List.map
      (fun t ->
        let key =
          Sct_store.Db.fingerprint ~bench:bench.Sctbench.Bench.name
            ~technique:(Sct_explore.Techniques.name t) o
        in
        (t, key, find key))
      techniques
  in
  let entries =
    List.filter_map (fun (t, _, e) -> Option.map (fun e -> (t, e)) e) cells
  in
  if Option.is_some store && List.compare_lengths entries cells = 0 then
    (* the detection phase ran when the cells were written, and its racy
       count rode along in each record *)
    Journalled
      {
        bench;
        racy_locations =
          (match entries with (_, e) :: _ -> e.Sct_store.Db.e_racy | [] -> 0);
        results = List.map (fun (t, e) -> (t, e.Sct_store.Db.e_stats)) entries;
      }
  else Missing cells

let record ?store o (bench : Sctbench.Bench.t) ~racy ~key t s =
  match store with
  | Some db ->
      Sct_store.Db.record db ~key ~bench:bench.Sctbench.Bench.name
        ~technique:(Sct_explore.Techniques.name t) ~racy ~options:o s
  | None -> ()

let run_benchmark ?store ?(techniques = Sct_explore.Techniques.all_paper)
    ?fan_out o (bench : Sctbench.Bench.t) =
  match lookup ?store o bench techniques with
  | Journalled row -> row
  | Missing cells ->
      let program = bench.Sctbench.Bench.program in
      let detection = Sct_explore.Techniques.detect_races o program in
      let promote = Sct_race.Promotion.promote detection in
      let racy = List.length detection.Sct_race.Promotion.racy in
      let results =
        List.map
          (fun (t, key, e) ->
            match e with
            | Some e -> (t, e.Sct_store.Db.e_stats)
            | None ->
                let s =
                  Sct_explore.Techniques.run ~promote ?fan_out o t program
                in
                record ?store o bench ~racy ~key t s;
                (t, s))
          cells
      in
      { bench; racy_locations = racy; results }

let run_all ?store ?techniques ?(progress = fun _ -> ()) o benches =
  List.map
    (fun b ->
      progress b;
      run_benchmark ?store ?techniques o b)
    benches
