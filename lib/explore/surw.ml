open Sct_core

(* SURW — selectively uniform random walk.

   A naive random walk (random_walk.ml) picks uniformly among the enabled
   threads at every scheduling point, which skews the sampled distribution
   over terminal schedules: threads with few remaining events keep
   receiving the same per-point probability as threads with many, so
   schedules that exhaust a short thread early are heavily over-sampled.
   SURW reweights each point by an a-priori estimate of how many events
   each thread still has to execute — the walk descends the schedule tree
   with probability proportional to the (estimated) number of leaves under
   each branch, approximating a uniform draw over terminal schedules.

   The estimates come from one uncounted deterministic round-robin probe
   (the same a-priori setup PCT uses for its depth range [k]): the probe
   counts how many times each thread was scheduled, and every run of the
   campaign starts from that per-thread budget, decrementing the chosen
   thread's budget at each point. A thread the probe never saw (spawned
   only under reordering) defaults to one remaining event; when every
   enabled thread's budget is exhausted the pick falls back to uniform. *)

type estimates = (Tid.t, int) Hashtbl.t

(* Exact per-thread event counts from a traversed schedule prefix. The
   runtime records one entry per scheduling point (singleton points
   included), so counting occurrences of each tid in the recorded schedule
   is exactly the count an instrumented scheduler would have accumulated —
   but it works on any recorded prefix, not just a live execution. This is
   the offline path-count probing of the SURW repo: traverse once, count,
   reuse the counts for the whole campaign. *)
let counts_of_schedule sched : estimates =
  let counts : estimates = Hashtbl.create 16 in
  List.iter
    (fun t ->
      Hashtbl.replace counts t
        (1 + Option.value ~default:0 (Hashtbl.find_opt counts t)))
    (Schedule.to_list sched);
  counts

(* the counting happens off the execution path, in [counts_of_schedule]
   over the recorded traversal *)
let probe ?promote ?max_steps program : estimates =
  counts_of_schedule
    (Replay.round_robin_run ?promote ?max_steps program).Runtime.r_schedule

(* Per-run state: the RNG and the mutable events-left budgets, seeded from
   the campaign estimates. *)
type run_state = { rng : Random.State.t; remaining : (Tid.t, int) Hashtbl.t }

let make_run ~(estimates : estimates) ~seed i =
  { rng = Random.State.make [| seed; i; 0x5a1 |]; remaining = Hashtbl.copy estimates }

(* one event left for threads the probe never saw *)
let left rs t = match Hashtbl.find_opt rs.remaining t with Some n -> n | None -> 1

let surw_choose rs (ctx : Runtime.ctx) =
  let weight t = max 0 (left rs t) in
  let total = List.fold_left (fun acc t -> acc + weight t) 0 ctx.c_enabled in
  (* one draw per point, weighted by events left; the last thread takes
     what the others leave *)
  let rec pick x t = function
    | [] -> t
    | u :: rest ->
        let w = weight t in
        if x < w then t else pick (x - w) u rest
  in
  let chosen =
    match ctx.c_enabled with
    | t :: rest when total > 0 -> pick (Random.State.int rs.rng total) t rest
    | _ ->
        (* all budgets spent: the estimate was short, fall back to uniform *)
        Runtime.uniform_pick rs.rng ctx
  in
  Hashtbl.replace rs.remaining chosen (left rs chosen - 1);
  chosen

(* [estimates = None] probes on campaign setup; shards of one campaign
   share the collector's probe instead, keeping run [i] identical for every
   shard assignment. *)
let strategy ?(promote = fun _ -> false) ?(max_steps = 100_000) ?estimates
    ?(lo = 0) ~seed program () : Strategy.t =
  (module struct
    let technique = "SURW"
    let tracks_distinct = true
    let respects_limit = true

    type state = {
      estimates : estimates;
      mutable i : int;
      mutable run : run_state;
    }

    let init () =
      let estimates =
        match estimates with
        | Some e -> e
        | None -> probe ~promote ~max_steps program
      in
      { estimates; i = lo; run = make_run ~estimates ~seed lo }

    (* a single never-ending phase, like the naive random walk *)
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
      st.run <- make_run ~estimates:st.estimates ~seed st.i;
      st.i <- st.i + 1

    let listener _ = None
    let choose st ctx = surw_choose st.run ctx
    let on_terminal _ _ =
      { Strategy.v_counts = true; v_phase_over = false; v_cut = false }
  end)

let explore_shard ?promote ?max_steps ?deadline ~estimates ~seed ~lo ~hi
    program =
  Driver.explore ?promote ?max_steps ?deadline ~count_offset:lo
    ~limit:(hi - lo)
    (strategy ?promote ?max_steps ~estimates ~lo ~seed program ())
    program

let explore ?promote ?max_steps ?deadline ~seed ~runs program =
  let estimates = probe ?promote ?max_steps program in
  explore_shard ?promote ?max_steps ?deadline ~estimates ~seed ~lo:0 ~hi:runs
    program

let sharding ?promote ?max_steps ?deadline ~seed program =
  (* one probe for the whole campaign, on the collector *)
  let estimates = probe ?promote ?max_steps program in
  Strategy.Shard_seed
    (fun ~lo ~hi ->
      explore_shard ?promote ?max_steps ?deadline ~estimates ~seed ~lo ~hi
        program)
