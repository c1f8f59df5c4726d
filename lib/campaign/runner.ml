module Stats = Sct_explore.Stats
module Techniques = Sct_explore.Techniques
module Db = Sct_store.Db
module Codec = Sct_store.Codec
module Drivers = Sct_parallel.Drivers

type slice_result = { stats : Stats.t; progress : Codec.progress }

(* A live session of an unfinished cell and the budget it had consumed
   when it last paused. *)
type live = { advance : limit:int -> Stats.t; paused_at : int }
type sessions = (string, live) Hashtbl.t

let sessions () : sessions = Hashtbl.create 64

let run_slice ~pool ~sessions ~promote ~slice ~prev (cell : Cell.t) =
  if slice < 1 then
    invalid_arg "Sct_campaign.Runner.run_slice: slice must be at least 1";
  let o = cell.Cell.options in
  let key = cell.Cell.key in
  let consumed, slices =
    match prev with
    | None -> (0, 0)
    | Some { Db.e_progress = Some p; _ } ->
        (p.Codec.p_consumed, p.Codec.p_slices)
    | Some e ->
        (* a finished study-runner record; the orchestrator never grants
           such a cell a slice, but stay total *)
        (e.Db.e_stats.Stats.total, 1)
  in
  let from = Option.map (fun e -> (consumed, e.Db.e_stats)) prev in
  (* A tree walk started afresh (this process never ran the cell, or its
     session does not stand where the journal does) re-runs the journalled
     prefix once, and the doubling bounds that re-run by the final run. A
     seeded session starts after the record instead. *)
  let target =
    min o.Techniques.limit
      (match Techniques.bounds o cell.Cell.technique with
      | Some _ -> max (consumed + slice) (2 * consumed)
      | None -> consumed + slice)
  in
  let advance =
    match Hashtbl.find_opt sessions key with
    | Some live when live.paused_at = consumed -> live.advance
    | Some _ | None ->
        Techniques.session ~promote ~fan_out:(Drivers.run_seeds ~pool) ?from o
          cell.Cell.technique cell.Cell.bench.Sctbench.Bench.program
  in
  let s = advance ~limit:target in
  (* When the limit is hit [total + cut_runs = target], so every slice
     strictly advances. A deadline finishes the cell where it stopped, even
     when another range of the same slice hit its limit. *)
  let consumed = s.Stats.total + s.Stats.cut_runs in
  let finished =
    (not s.Stats.hit_limit) || s.Stats.hit_deadline
    || target >= o.Techniques.limit
  in
  if finished then Hashtbl.remove sessions key
  else Hashtbl.replace sessions key { advance; paused_at = consumed };
  {
    stats = s;
    progress =
      { Codec.p_consumed = consumed; p_slices = slices + 1; p_done = finished };
  }
