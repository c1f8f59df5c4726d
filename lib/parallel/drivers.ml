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

(* A seeded session's fan-out on a pool: one contiguous sub-range of
   [lo, hi) per pool worker, folded with Stats.merge (first-bug indices are
   absolute, so the merge recovers the sequential first bug). *)
let run_seeds ~pool run ~lo ~hi =
  let n = hi - lo in
  if Pool.size pool <= 1 || n <= 1 then run ~lo ~hi
  else
    let futs =
      List.map
        (fun (slo, shi) ->
          Pool.submit pool (fun () -> run ~lo:(lo + slo) ~hi:(lo + shi)))
        (shard_ranges ~shards:(Pool.size pool) ~n)
    in
    merge_all (List.map Pool.await futs)
