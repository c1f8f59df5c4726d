open Sct_explore

let row_of ~bench ~detection results =
  {
    Sct_report.Run_data.bench;
    racy_locations = List.length detection.Sct_race.Promotion.racy;
    results;
  }

let cached_stats db key = (Option.get (Sct_store.Db.find db key)).Sct_store.Db.e_stats

(* Await the futures of one benchmark's missing cells and journal each
   result as it lands; cached cells are filled in from the store. The store
   is only ever touched from the calling (collector) domain. *)
let collect_stored db ~bench ~racy ~options keyed futs =
  let computed =
    List.map
      (fun (t, key, fut) ->
        let s = Pool.await fut in
        Sct_store.Db.record db ~key ~bench ~technique:(Techniques.name t)
          ~racy ~options s;
        (t, s))
      futs
  in
  List.map
    (fun (t, key) ->
      match List.assq_opt t computed with
      | Some s -> (t, s)
      | None -> (t, cached_stats db key))
    keyed

let run_all ~pool ?store ?(techniques = Techniques.all_paper)
    ?(progress = fun _ -> ()) o benches =
  if Pool.size pool <= 1 then
    Sct_report.Run_data.run_all ?store ~techniques ~progress o benches
  else begin
    (* Whole-suite runs use coarse sharding: one job per benchmark for race
       detection, then one job per benchmark x technique, each running the
       ordinary sequential code — so every row is computed by exactly the
       same function as [Run_data.run_all], merely on another domain. With a
       store, fully journalled cells never become jobs, and benchmarks whose
       cells are all journalled skip race detection too. *)
    let cells b = Sct_report.Run_data.keyed_cells o b techniques in
    let needs_detection (b : Sctbench.Bench.t) =
      match store with
      | None -> true
      | Some db ->
          List.exists (fun (_, key) -> not (Sct_store.Db.mem db key)) (cells b)
    in
    let detections =
      benches
      |> List.map (fun (b : Sctbench.Bench.t) ->
             ( b,
               if needs_detection b then
                 Some
                   (Pool.submit pool (fun () ->
                        Techniques.detect_races o b.Sctbench.Bench.program))
               else None ))
      |> List.map (fun (b, fut) -> (b, Option.map Pool.await fut))
    in
    let pending =
      List.map
        (fun ((b : Sctbench.Bench.t), detection) ->
          let keyed = cells b in
          let futs =
            match detection with
            | None -> []
            | Some detection ->
                let promote = Sct_race.Promotion.promote detection in
                List.filter_map
                  (fun (t, key) ->
                    let cached =
                      match store with
                      | Some db -> Sct_store.Db.mem db key
                      | None -> false
                    in
                    if cached then None
                    else
                      Some
                        ( t,
                          key,
                          Pool.submit pool (fun () ->
                              Techniques.run ~promote o t
                                b.Sctbench.Bench.program) ))
                  keyed
          in
          (b, keyed, detection, futs))
        detections
    in
    List.map
      (fun ((b : Sctbench.Bench.t), keyed, detection, futs) ->
        progress b;
        match store with
        | None ->
            let detection = Option.get detection in
            let results =
              List.map (fun (t, _, fut) -> (t, Pool.await fut)) futs
            in
            row_of ~bench:b ~detection results
        | Some db ->
            let racy =
              match detection with
              | Some d -> List.length d.Sct_race.Promotion.racy
              | None -> (
                  match keyed with
                  | (_, key) :: _ ->
                      (Option.get (Sct_store.Db.find db key)).Sct_store.Db.e_racy
                  | [] -> 0)
            in
            let results =
              collect_stored db ~bench:b.Sctbench.Bench.name ~racy ~options:o
                keyed futs
            in
            { Sct_report.Run_data.bench = b; racy_locations = racy; results })
      pending
  end
