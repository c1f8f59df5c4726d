module Stats = Sct_explore.Stats
module Techniques = Sct_explore.Techniques
module Strategy = Sct_explore.Strategy
module Db = Sct_store.Db
module Codec = Sct_store.Codec
module Drivers = Sct_parallel.Drivers

type slice_result = { stats : Stats.t; progress : Codec.progress }

let run_slice ~pool ~promote ~slice ~prev (cell : Cell.t) =
  if slice < 1 then
    invalid_arg "Sct_campaign.Runner.run_slice: slice must be at least 1";
  let o = cell.Cell.options in
  let program = cell.Cell.bench.Sctbench.Bench.program in
  let prev_stats = Option.map (fun e -> e.Db.e_stats) prev in
  let consumed, slices =
    match prev with
    | None -> (0, 0)
    | Some e -> (
        match e.Db.e_progress with
        | Some p -> (p.Codec.p_consumed, p.Codec.p_slices)
        | None ->
            (* a finished study-runner record; the orchestrator never
               grants such a cell a slice, but stay total *)
            (e.Db.e_stats.Stats.total, 1))
  in
  (* Re-run the cumulative prefix under a geometrically growing limit:
     doubling bounds the total re-executed work by ~2x the final run, and
     the last slice explores under the cell's exact limit. Consumed budget
     counts cut runs (fair/length bounding): a cut execution charges the
     budget without counting, and when the limit is hit
     [total + cut_runs = target], so every slice strictly advances. *)
  let rerun_growing () =
    let target =
      min o.Techniques.limit (max (consumed + slice) (2 * consumed))
    in
    let s =
      Drivers.run ~pool ~promote
        { o with Techniques.limit = target }
        cell.Cell.technique program
    in
    let finished = (not s.Stats.hit_limit) || target >= o.Techniques.limit in
    {
      stats = s;
      progress =
        {
          Codec.p_consumed = s.Stats.total + s.Stats.cut_runs;
          p_slices = slices + 1;
          p_done = finished;
        };
    }
  in
  match Techniques.sharding ~promote o cell.Cell.technique program with
  | Strategy.Sequential -> rerun_growing ()
  | Strategy.Shard_seed shard ->
      let hi = min o.Techniques.limit (consumed + slice) in
      let slice_stats = Drivers.run_seeds ~pool shard ~lo:consumed ~hi in
      let stats =
        match prev_stats with
        | None -> slice_stats
        | Some p -> Stats.merge p slice_stats
      in
      {
        stats;
        progress =
          {
            Codec.p_consumed = hi;
            p_slices = slices + 1;
            p_done = hi >= o.Techniques.limit;
          };
      }
