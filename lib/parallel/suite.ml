open Sct_explore

module Run_data = Sct_report.Run_data

(* A cell of a benchmark that still runs: its journalled record, or the
   future that computes it. *)
type cell = Cached of Sct_store.Db.entry | Pending of Stats.t Pool.future

let run_all ~pool ?store ?(techniques = Techniques.all_paper)
    ?(progress = fun _ -> ()) o benches =
  if Pool.size pool <= 1 then
    Run_data.run_all ?store ~techniques ~progress o benches
  else begin
    (* Whole-suite runs use coarse sharding: one job per benchmark for race
       detection, then one job per benchmark x technique, each running the
       ordinary sequential code — so every row is computed by exactly the
       same function as [Run_data.run_all], merely on another domain. With a
       store, journalled cells never become jobs, and benchmarks whose
       cells are all journalled skip race detection too. Each cell is
       looked up in the store once. *)
    let detected =
      benches
      |> List.map (fun (b : Sctbench.Bench.t) ->
             match Run_data.lookup ?store o b techniques with
             | Run_data.Journalled row -> (b, Either.Left row)
             | Run_data.Missing cells ->
                 let detection =
                   Pool.submit pool (fun () ->
                       Techniques.detect_races o b.Sctbench.Bench.program)
                 in
                 (b, Either.Right (cells, detection)))
      |> List.map (fun (b, plan) ->
             ( b,
               Either.map_right
                 (fun (cells, fut) -> (cells, Pool.await fut))
                 plan ))
    in
    let submitted =
      List.map
        (fun ((b : Sctbench.Bench.t), plan) ->
          ( b,
            Either.map_right
              (fun (cells, detection) ->
                let promote = Sct_race.Promotion.promote detection in
                let cell (t, key, e) =
                  match e with
                  | Some e -> (t, key, Cached e)
                  | None ->
                      ( t,
                        key,
                        Pending
                          (Pool.submit pool (fun () ->
                               Techniques.run ~promote o t
                                 b.Sctbench.Bench.program)) )
                in
                (detection, List.map cell cells))
              plan ))
        detected
    in
    (* Await each benchmark's cells in suite order and journal each result
       as it lands. The store is only ever touched from the calling
       (collector) domain. *)
    List.map
      (fun ((b : Sctbench.Bench.t), plan) ->
        progress b;
        match plan with
        | Either.Left row -> row
        | Either.Right (detection, cells) ->
            let racy = List.length detection.Sct_race.Promotion.racy in
            let result (t, key, cell) =
              match cell with
              | Cached e -> (t, e.Sct_store.Db.e_stats)
              | Pending fut ->
                  let s = Pool.await fut in
                  Run_data.record ?store o b ~racy ~key t s;
                  (t, s)
            in
            {
              Run_data.bench = b;
              racy_locations = racy;
              results = List.map result cells;
            })
      submitted
  end
