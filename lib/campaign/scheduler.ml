module Stats = Sct_explore.Stats
module Db = Sct_store.Db
module Codec = Sct_store.Codec

type state = {
  s_consumed : int;
  s_slices : int;
  s_coverage : int;
  s_bound : int option;
  s_finished : bool;
}

let state_of_entry (e : Db.entry) =
  let s_consumed, s_slices =
    match e.Db.e_progress with
    | Some p -> (p.Codec.p_consumed, p.Codec.p_slices)
    | None -> (e.Db.e_stats.Stats.total, 1)
  in
  {
    s_consumed;
    s_slices;
    s_coverage = Stats.coverage e.Db.e_stats;
    s_bound = e.Db.e_stats.Stats.bound;
    s_finished = Db.finished e;
  }

(* Fewest slices first; [iteri] order makes ties resolve to the lowest
   grid index, so the first pass is the study runner's order. *)
let pick states =
  let best = ref None in
  Array.iteri
    (fun i st ->
      match st with
      | Some s when s.s_finished -> ()
      | _ ->
          let slices = match st with None -> 0 | Some s -> s.s_slices in
          let better =
            match !best with None -> true | Some (v, _) -> slices < v
          in
          if better then best := Some (slices, i))
    states;
  Option.map snd !best
