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

(* Interpreter for the Shard_seed plan: one contiguous sub-range of
   [lo, hi) per pool worker, folded with Stats.merge (first-bug indices are
   absolute, so the merge recovers the sequential first bug). *)
let run_seeds ~pool shard ~lo ~hi =
  let n = hi - lo in
  if Pool.size pool <= 1 || n <= 1 then shard ~lo ~hi
  else
    let futs =
      List.map
        (fun (slo, shi) ->
          Pool.submit pool (fun () -> shard ~lo:(lo + slo) ~hi:(lo + shi)))
        (shard_ranges ~shards:(Pool.size pool) ~n)
    in
    merge_all (List.map Pool.await futs)

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
    | Strategy.Shard_seed shard -> run_seeds ~pool shard ~lo:0 ~hi:o.limit
