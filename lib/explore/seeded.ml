open Sct_core

(* The seeded techniques. Run [i] of a campaign is a pure function of the
   seed, [i] and one uncounted probe of the program, so any contiguous
   split of the run range replays the sequential campaign exactly
   (lib/parallel shards it, lib/campaign slices it). A preset only says
   what to probe and how run [i] schedules; one strategy, one explore and
   one parallel plan run every preset. *)

type t = {
  name : string;
  tracks_distinct : bool;
  probe :
    promote:(string -> bool) ->
    max_steps:int ->
    (unit -> unit) ->
    seed:int ->
    int ->
    Runtime.scheduler;
}

(* --- Rand: no probe, one uniform draw per scheduling point ------------- *)

let rand =
  {
    name = "Rand";
    tracks_distinct = true;
    probe =
      (fun ~promote:_ ~max_steps:_ _ ~seed i ->
        Runtime.uniform_pick (Random.State.make [| seed; i |]));
  }

(* --- PCT ---------------------------------------------------------------- *)

(* The highest-priority enabled thread runs. Initial priorities are drawn
   lazily above [change_points]; at a sampled change depth the thread
   about to run drops to priority [j], below every initial one. The first
   thread's priority is drawn only when a second one is compared with it,
   so a lone enabled thread draws none. *)
let pct_choose ~change_points rng priorities depths (ctx : Runtime.ctx) =
  let priority t =
    match Hashtbl.find_opt priorities t with
    | Some p -> p
    | None ->
        let p = change_points + 1 + Random.State.int rng 1_000_000 in
        Hashtbl.replace priorities t p;
        p
  in
  let best first rest =
    List.fold_left
      (fun u t -> if priority t > priority u then t else u)
      first rest
  in
  match ctx.c_enabled with
  | [] -> invalid_arg "Sct_explore.Seeded.pct: no enabled thread"
  | first :: rest ->
      let t = best first rest in
      List.iter
        (fun (d, j) ->
          if d = ctx.c_step + 1 then Hashtbl.replace priorities t j)
        depths;
      best first rest

(* The probe is PCT's a-priori depth range [k]: the length of the
   round-robin run, the schedule the systematic techniques start from. *)
let pct ~change_points =
  {
    name = "PCT";
    tracks_distinct = false;
    probe =
      (fun ~promote ~max_steps program ->
        let rr = Replay.round_robin_run ~promote ~max_steps program in
        let k = max 1 rr.Runtime.r_steps in
        fun ~seed i ->
          let rng = Random.State.make [| seed; i; 0x9c7 |] in
          let depths =
            List.init change_points (fun j -> (1 + Random.State.int rng k, j))
          in
          pct_choose ~change_points rng (Hashtbl.create 16) depths);
  }

(* --- SURW: a selectively uniform random walk ---------------------------- *)

(* One draw per point, weighted by each enabled thread's events left (one
   for a thread the probe never saw); the last thread takes what the
   others leave. When every budget is spent the estimate was short, and
   the pick falls back to uniform. *)
let surw_choose rng remaining (ctx : Runtime.ctx) =
  let left t = Option.value ~default:1 (Hashtbl.find_opt remaining t) in
  let weight t = max 0 (left t) in
  let total = List.fold_left (fun acc t -> acc + weight t) 0 ctx.c_enabled in
  let rec pick x t = function
    | [] -> t
    | u :: rest ->
        let w = weight t in
        if x < w then t else pick (x - w) u rest
  in
  let chosen =
    match ctx.c_enabled with
    | t :: rest when total > 0 -> pick (Random.State.int rng total) t rest
    | _ -> Runtime.uniform_pick rng ctx
  in
  Hashtbl.replace remaining chosen (left chosen - 1);
  chosen

(* The probe counts how often the round-robin run scheduled each thread:
   the per-thread budgets every run starts from. *)
let surw =
  {
    name = "SURW";
    tracks_distinct = true;
    probe =
      (fun ~promote ~max_steps program ->
        let rr = Replay.round_robin_run ~promote ~max_steps program in
        let estimates = Hashtbl.create 16 in
        List.iter
          (fun t ->
            Hashtbl.replace estimates t
              (1 + Option.value ~default:0 (Hashtbl.find_opt estimates t)))
          (Schedule.to_list rr.Runtime.r_schedule);
        fun ~seed i ->
          surw_choose
            (Random.State.make [| seed; i; 0x5a1 |])
            (Hashtbl.copy estimates));
  }

(* --- the one runner ----------------------------------------------------- *)

(* Runs [lo], [lo + 1], ... in a single never-ending phase, which only the
   budget, the deadline or [stop_on_bug] stops. [setup] runs in [init]:
   the campaign's own probe, or a shard's share of its collector's. *)
let runs_from ~lo p setup : Strategy.t =
  (module struct
    let technique = p.name
    let tracks_distinct = p.tracks_distinct
    let respects_limit = true

    type state = {
      run_of : int -> Runtime.scheduler;
      mutable i : int;
      mutable run : Runtime.scheduler;
    }

    let init () =
      let run_of = setup () in
      { run_of; i = lo; run = run_of lo }

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
      st.run <- st.run_of st.i;
      st.i <- st.i + 1

    let listener _ = None
    let choose st = st.run

    let on_terminal _ _ =
      { Strategy.v_counts = true; v_phase_over = false; v_cut = false }
  end)

let strategy ?(promote = fun _ -> false) ?(max_steps = 100_000) ~seed p
    program =
  runs_from ~lo:0 p (fun () -> p.probe ~promote ~max_steps program ~seed)

let explore ?(promote = fun _ -> false) ?(max_steps = 100_000) ?stop_on_bug
    ?deadline ~seed ~runs p program =
  Driver.explore ~promote ~max_steps ?stop_on_bug ?deadline ~limit:runs
    (strategy ~promote ~max_steps ~seed p program)
    program

let sharding ?(promote = fun _ -> false) ?(max_steps = 100_000) ?deadline
    ~seed p program =
  (* one probe for the whole campaign, on the collector *)
  let run_of = p.probe ~promote ~max_steps program ~seed in
  Strategy.Shard_seed
    (fun ~lo ~hi ->
      Driver.explore ~promote ~max_steps ?deadline ~count_offset:lo
        ~limit:(hi - lo)
        (runs_from ~lo p (fun () -> run_of))
        program)
