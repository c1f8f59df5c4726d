open Sct_explore

(* Balanced contiguous shards covering [0, n). Always at least one shard
   (possibly empty), so the merged result of an empty campaign matches the
   sequential one (hit_limit set, empty distinct-schedule set). *)
let shard_ranges ~shards ~n =
  let shards = max 1 (min shards (max 1 n)) in
  let base = n / shards and extra = n mod shards in
  List.init shards (fun s ->
      let lo = (s * base) + min s extra in
      let hi = lo + base + if s < extra then 1 else 0 in
      (lo, hi))

let merge_all = function
  | [] -> invalid_arg "Sct_parallel.Drivers.merge_all: no shards"
  | s :: rest -> List.fold_left Stats.merge s rest

(* Interpreter for the Shard_seed plan: contiguous per-worker slices
   of the run range, folded with Stats.merge (first-bug indices are
   absolute, so the merge recovers the sequential first bug). *)
let run_seed_sharded ~pool ~limit shard =
  let futs =
    List.map
      (fun (lo, hi) -> Pool.submit pool (fun () -> shard ~lo ~hi))
      (shard_ranges ~shards:(Pool.size pool) ~n:limit)
  in
  merge_all (List.map Pool.await futs)

(* Interpreter for the Shard_runs plan: each batch's independent runs
   execute in parallel; their results are committed and absorbed in batch
   order, truncated at the first bug — runs past it are cancelled
   unabsorbed, exactly the runs the sequential algorithm would not have
   executed. *)
let run_batched ~pool (rb : Strategy.run_batches) =
  let rec batches () =
    match rb.Strategy.rb_next () with
    | None -> ()
    | Some batch ->
        let futs = List.map (Pool.submit pool) batch in
        List.iter
          (fun fut ->
            if rb.Strategy.rb_found () then Pool.cancel fut
            else begin
              let res, commit = Pool.await fut in
              commit ();
              rb.Strategy.rb_absorb res
            end)
          futs;
        batches ()
  in
  batches ();
  rb.Strategy.rb_finish ()

(* Dispatch purely on the pool size and the declared plan: the shape of
   the {!Sct_explore.Strategy.sharding} value decides, never the technique
   or its options. *)
let run ~pool ?(promote = fun _ -> false) (o : Techniques.options) technique
    program =
  let sequential () = Techniques.run ~promote o technique program in
  if Pool.size pool <= 1 then sequential ()
  else
    match Techniques.sharding ~promote o technique program with
    | Strategy.Sequential -> sequential ()
    | Strategy.Shard_seed shard -> run_seed_sharded ~pool ~limit:o.limit shard
    | Strategy.Shard_runs rb -> run_batched ~pool rb

let run_all ~pool ?(techniques = Techniques.all_paper) o program =
  let detection = Techniques.detect_races o program in
  let promote = Sct_race.Promotion.promote detection in
  let results =
    List.map (fun t -> (t, run ~pool ~promote o t program)) techniques
  in
  (detection, results)
