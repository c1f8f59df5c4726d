module Stats = Sct_explore.Stats
module Techniques = Sct_explore.Techniques
module Strategy = Sct_explore.Strategy
module Db = Sct_store.Db
module Codec = Sct_store.Codec
module Drivers = Sct_parallel.Drivers

type slice_result = { stats : Stats.t; progress : Codec.progress }

(* A live session of an unfinished [Sequential] cell and the budget it had
   consumed when it last paused. *)
type live = { advance : limit:int -> Stats.t; paused_at : int }
type sessions = (string, live) Hashtbl.t

let sessions () : sessions = Hashtbl.create 64

let run_slice ~pool ~sessions ~promote ~slice ~prev (cell : Cell.t) =
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
  (* Advance the cell's walk under a geometrically growing limit: the
     last slice explores under the cell's exact limit. A live session
     continues from where the previous slice paused it; a fresh one (this
     process never ran the cell, or its session does not stand where the
     journal does) re-runs the journalled prefix once, and the doubling
     bounds that re-run by the final run. Consumed budget counts cut runs
     (fair/length bounding): a cut execution charges the budget without
     counting, and when the limit is hit [total + cut_runs = target], so
     every slice strictly advances. *)
  let advance_growing () =
    let key = cell.Cell.key in
    let target =
      min o.Techniques.limit (max (consumed + slice) (2 * consumed))
    in
    let advance =
      match Hashtbl.find_opt sessions key with
      | Some live when live.paused_at = consumed -> live.advance
      | Some _ | None ->
          Techniques.session ~promote o cell.Cell.technique program
    in
    let s = advance ~limit:target in
    let finished = (not s.Stats.hit_limit) || target >= o.Techniques.limit in
    let consumed = s.Stats.total + s.Stats.cut_runs in
    if finished then Hashtbl.remove sessions key
    else Hashtbl.replace sessions key { advance; paused_at = consumed };
    {
      stats = s;
      progress =
        {
          Codec.p_consumed = consumed;
          p_slices = slices + 1;
          p_done = finished;
        };
    }
  in
  match Techniques.sharding ~promote o cell.Cell.technique program with
  | Strategy.Sequential -> advance_growing ()
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
