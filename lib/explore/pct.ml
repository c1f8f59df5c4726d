open Sct_core

(* Estimate the execution length with one deterministic round-robin run
   (the same initial schedule the systematic techniques start from). PCT's
   [k] is an a-priori estimate fixed for the whole campaign — keeping it
   independent of the sampled runs is what makes run [i] a pure function of
   [(seed, i, k)] and therefore shardable across domains. *)
let probe ?promote ?max_steps program =
  max 1 (Replay.round_robin_run ?promote ?max_steps program).Runtime.r_steps

(* Per-run scheduler state: the lazily drawn priorities and the sampled
   change depths. Distinct-with-high-probability initial priorities above
   the change values; change value j is j itself (all below initial
   priorities). *)
type run_state = {
  rng : Random.State.t;
  priorities : (Tid.t, int) Hashtbl.t;
  depths : (int * int) list;
}

let make_run ~change_points ~seed ~k i =
  let rng = Random.State.make [| seed; i; 0x9c7 |] in
  let priorities : (Tid.t, int) Hashtbl.t = Hashtbl.create 16 in
  let depths =
    List.init change_points (fun j -> (1 + Random.State.int rng k, j))
  in
  { rng; priorities; depths }

let pct_choose ~change_points rs (ctx : Runtime.ctx) =
  let priority t =
    match Hashtbl.find_opt rs.priorities t with
    | Some p -> p
    | None ->
        let p = change_points + 1 + Random.State.int rs.rng 1_000_000 in
        Hashtbl.replace rs.priorities t p;
        p
  in
  (* The first thread's priority is drawn only when a second one is
     compared with it, so a lone enabled thread draws none. *)
  let best first rest =
    List.fold_left
      (fun u t -> if priority t > priority u then t else u)
      first rest
  in
  match ctx.c_enabled with
  | [] -> invalid_arg "Sct_explore.Pct: no enabled thread"
  | first :: rest ->
      let t = best first rest in
      List.iter
        (fun (d, j) ->
          if d = ctx.c_step + 1 then Hashtbl.replace rs.priorities t j)
        rs.depths;
      best first rest

(* [k = None] probes on campaign setup; shards of one campaign share the
   collector's probe instead, keeping run [i] identical for every shard
   assignment. *)
let strategy ?(promote = fun _ -> false) ?(max_steps = 100_000)
    ?(change_points = 2) ?k ?(lo = 0) ~seed program () : Strategy.t =
  (module struct
    let technique = "PCT"
    let tracks_distinct = false
    let respects_limit = true

    type state = { k : int; mutable i : int; mutable run : run_state }

    let init () =
      let k = match k with Some k -> k | None -> probe ~promote ~max_steps program in
      { k; i = lo; run = make_run ~change_points ~seed ~k lo }

    let next_phase st =
      if st.i > lo then
        Strategy.Finished
          {
            f_complete = false;
            f_bound = None;
            f_bound_complete = false;
            f_new_at_bound = false;
          }
      else Strategy.Phase { ph_bound = None; ph_new_at_bound = false }

    let begin_run st =
      st.run <- make_run ~change_points ~seed ~k:st.k st.i;
      st.i <- st.i + 1

    let listener _ = None
    let choose st ctx = pct_choose ~change_points st.run ctx
    let on_terminal _ _ =
      { Strategy.v_counts = true; v_phase_over = false; v_cut = false }
  end)

let explore_shard ?promote ?max_steps ?change_points ?deadline ~seed ~k ~lo
    ~hi program =
  let s =
    Driver.explore ?promote ?max_steps ?deadline ~count_offset:lo
      ~limit:(hi - lo)
      (strategy ?promote ?max_steps ?change_points ~k ~lo ~seed program ())
      program
  in
  { s with Stats.hit_limit = true }

let explore ?promote ?max_steps ?change_points ?deadline ~seed ~runs program =
  let k = probe ?promote ?max_steps program in
  explore_shard ?promote ?max_steps ?change_points ?deadline ~seed ~k ~lo:0
    ~hi:runs program

let sharding ?promote ?max_steps ?change_points ?deadline ~seed program =
  (* one probe for the whole campaign, on the collector *)
  let k = probe ?promote ?max_steps program in
  Strategy.Shard_seed
    (fun ~lo ~hi ->
      explore_shard ?promote ?max_steps ?change_points ?deadline ~seed ~k ~lo
        ~hi program)
