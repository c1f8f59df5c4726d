(* The Strategy interface and the generic driver (lib/explore/strategy.ml,
   driver.ml): each technique routed through Driver.explore must equal a
   from-scratch naive reference loop written directly against the runtime;
   the wall-clock deadline must be reported distinctly from the schedule
   limit, on one domain and on a pool; and the SURW extension must be
   seed-deterministic, shardable (jobs 1 == jobs 4) and able to find easy
   bugs. *)

open Sct_core
module Stats = Sct_explore.Stats
module Techniques = Sct_explore.Techniques

let promote_all _ = true
let stats_t = Alcotest.testable Stats.pp Stats.equal

let two_seq a b () =
  let (_ : Tid.t) =
    Sct.spawn
      (fun () ->
        for _ = 1 to b do
          Sct.yield ()
        done)
  in
  for _ = 1 to a do
    Sct.yield ()
  done

let figure1 () =
  let x = Sct.Var.make ~name:"x" 0 and y = Sct.Var.make ~name:"y" 0 in
  let t1 =
    Sct.spawn (fun () ->
        Sct.Var.write x 1;
        Sct.Var.write y 1)
  in
  let t2 =
    Sct.spawn (fun () ->
        let vx = Sct.Var.read x in
        let vy = Sct.Var.read y in
        Sct.check (vx = vy) "x=y")
  in
  ignore (t1, t2)

(* --- naive reference loops ---
   Written directly against Runtime.exec, with their own stats bookkeeping:
   they share no code with Driver.explore or the STRATEGY instances. *)

let count_result ~i stats (res : Runtime.result) =
  let stats = Stats.observe_run stats res in
  let stats =
    {
      stats with
      Stats.total = stats.Stats.total + 1;
      executions = stats.Stats.executions + 1;
    }
  in
  match res.Runtime.r_outcome with
  | Outcome.Bug { bug; by } ->
      let stats = { stats with Stats.buggy = stats.Stats.buggy + 1 } in
      if stats.Stats.to_first_bug = None then
        {
          stats with
          Stats.to_first_bug = Some i;
          first_bug =
            Some
              {
                Stats.w_bug = bug;
                w_by = by;
                w_schedule = res.Runtime.r_schedule;
                w_pc = res.Runtime.r_pc;
                w_dc = res.Runtime.r_dc;
              };
        }
      else stats
  | Outcome.Ok | Outcome.Step_limit -> stats

let naive_rand ~seed ~runs program =
  let stats = ref (Stats.base ~technique:"Rand") in
  let seen = ref Stats.Sched_set.empty in
  for i = 0 to runs - 1 do
    let rng = Random.State.make [| seed; i |] in
    let scheduler (ctx : Runtime.ctx) =
      match ctx.c_enabled with
      | [ t ] ->
          ignore (Random.State.int rng 1 : int);
          t
      | enabled ->
          let a = Array.of_list enabled in
          a.(Random.State.int rng (Array.length a))
    in
    let res =
      Runtime.exec ~promote:promote_all ~max_steps:100_000 ~scheduler program
    in
    seen := Stats.Sched_set.add (Schedule.to_list res.Runtime.r_schedule) !seen;
    stats := count_result ~i:(i + 1) !stats res
  done;
  {
    !stats with
    Stats.hit_limit = true;
    distinct_schedules = Some !seen;
  }

let naive_pct ~change_points ~seed ~runs program =
  (* the a-priori length estimate: one deterministic RR run *)
  let rr (ctx : Runtime.ctx) =
    match
      Delay.deterministic_choice ~n:ctx.c_n_threads ~last:ctx.c_last
        ~enabled:ctx.c_enabled
    with
    | Some t -> t
    | None -> assert false
  in
  let k =
    max 1
      (Runtime.exec ~promote:promote_all ~max_steps:100_000 ~scheduler:rr
         program)
        .Runtime.r_steps
  in
  let stats = ref (Stats.base ~technique:"PCT") in
  for i = 0 to runs - 1 do
    let rng = Random.State.make [| seed; i; 0x9c7 |] in
    let priorities : (Tid.t, int) Hashtbl.t = Hashtbl.create 16 in
    let depths =
      List.init change_points (fun j -> (1 + Random.State.int rng k, j))
    in
    let priority t =
      match Hashtbl.find_opt priorities t with
      | Some p -> p
      | None ->
          let p = change_points + 1 + Random.State.int rng 1_000_000 in
          Hashtbl.replace priorities t p;
          p
    in
    let scheduler (ctx : Runtime.ctx) =
      let best () =
        List.fold_left
          (fun acc t ->
            match acc with
            | None -> Some t
            | Some u -> if priority t > priority u then Some t else acc)
          None ctx.c_enabled
      in
      (match best () with
      | Some t ->
          List.iter
            (fun (d, j) ->
              if d = ctx.c_step + 1 then Hashtbl.replace priorities t j)
            depths
      | None -> ());
      match best () with Some t -> t | None -> assert false
    in
    let res =
      Runtime.exec ~promote:promote_all ~max_steps:100_000 ~scheduler program
    in
    stats := count_result ~i:(i + 1) !stats res
  done;
  { !stats with Stats.hit_limit = true }

let naive_surw ~seed ~runs program =
  (* the per-thread budgets: how often one deterministic RR run scheduled
     each thread, counted off its recorded schedule *)
  let rr (ctx : Runtime.ctx) =
    match
      Delay.deterministic_choice ~n:ctx.c_n_threads ~last:ctx.c_last
        ~enabled:ctx.c_enabled
    with
    | Some t -> t
    | None -> assert false
  in
  let probe =
    Runtime.exec ~promote:promote_all ~max_steps:100_000 ~scheduler:rr program
  in
  let budgets =
    List.fold_left
      (fun acc t ->
        let n = Option.value ~default:0 (List.assoc_opt t acc) in
        (t, n + 1) :: List.remove_assoc t acc)
      []
      (Schedule.to_list probe.Runtime.r_schedule)
  in
  let stats = ref (Stats.base ~technique:"SURW") in
  let seen = ref Stats.Sched_set.empty in
  for i = 0 to runs - 1 do
    let rng = Random.State.make [| seed; i; 0x5a1 |] in
    (* a thread the probe never saw has one event left *)
    let left = ref budgets in
    let left_of t = Option.value ~default:1 (List.assoc_opt t !left) in
    let scheduler (ctx : Runtime.ctx) =
      let weights = List.map (fun t -> (t, max 0 (left_of t))) ctx.c_enabled in
      let total = List.fold_left (fun acc (_, w) -> acc + w) 0 weights in
      let t =
        if total > 0 then begin
          (* the first thread whose cumulative weight passes the draw *)
          let x = Random.State.int rng total in
          let rec first acc = function
            | [] -> assert false
            | (t, w) :: rest -> if x < acc + w then t else first (acc + w) rest
          in
          first 0 weights
        end
        else
          match ctx.c_enabled with
          | [ t ] ->
              ignore (Random.State.int rng 1 : int);
              t
          | enabled ->
              let a = Array.of_list enabled in
              a.(Random.State.int rng (Array.length a))
      in
      left := (t, left_of t - 1) :: List.remove_assoc t !left;
      t
    in
    let res =
      Runtime.exec ~promote:promote_all ~max_steps:100_000 ~scheduler program
    in
    seen := Stats.Sched_set.add (Schedule.to_list res.Runtime.r_schedule) !seen;
    stats := count_result ~i:(i + 1) !stats res
  done;
  {
    !stats with
    Stats.hit_limit = true;
    distinct_schedules = Some !seen;
  }

(* Naive DFS: a work-list of decision prefixes (no backtracking stack, no
   replay machinery shared with lib/explore). Each run follows its prefix,
   then always takes the round-robin-first enabled thread, recording every
   untried alternative as a new prefix. Counts terminal schedules. *)
let naive_dfs_count program =
  let counted = ref 0 in
  let work = Queue.create () in
  Queue.add [] work;
  while not (Queue.is_empty work) do
    let prefix = Queue.pop work in
    let depth = ref 0 in
    let path = ref [] in
    (* decisions taken so far, reversed *)
    let scheduler (ctx : Runtime.ctx) =
      let i = !depth in
      incr depth;
      let t =
        match List.nth_opt prefix i with
        | Some t -> t
        | None ->
            let order =
              Delay.rr_order ~n:ctx.c_n_threads ~last:ctx.c_last
                ~enabled:ctx.c_enabled
            in
            (* every untried sibling becomes a fresh prefix: the path up to
               here plus the alternative decision *)
            List.iter
              (fun alt -> Queue.add (List.rev (alt :: !path)) work)
              (List.tl order);
            List.hd order
      in
      path := t :: !path;
      t
    in
    let (_ : Runtime.result) =
      Runtime.exec ~promote:promote_all ~max_steps:100_000 ~scheduler program
    in
    incr counted
  done;
  !counted

let test_rand_matches_naive () =
  List.iter
    (fun (seed, runs) ->
      let driver =
        Techniques.run ~promote:promote_all
          { Techniques.default_options with Techniques.limit = runs; seed }
          Techniques.Rand figure1
      in
      Alcotest.check stats_t
        (Printf.sprintf "Rand seed=%d runs=%d" seed runs)
        (naive_rand ~seed ~runs figure1)
        driver)
    [ (0, 1); (0, 57); (3, 200); (42, 100) ]

let test_pct_matches_naive () =
  List.iter
    (fun (seed, runs, change_points) ->
      let driver =
        Techniques.run ~promote:promote_all
          {
            Techniques.default_options with
            Techniques.limit = runs;
            seed;
            pct_change_points = change_points;
          }
          Techniques.PCT figure1
      in
      Alcotest.check stats_t
        (Printf.sprintf "PCT seed=%d runs=%d cp=%d" seed runs change_points)
        (naive_pct ~change_points ~seed ~runs figure1)
        driver)
    [ (0, 50, 1); (1, 120, 2); (7, 80, 3) ]

let test_surw_matches_naive () =
  List.iter
    (fun (seed, runs) ->
      let driver =
        Techniques.run ~promote:promote_all
          { Techniques.default_options with Techniques.limit = runs; seed }
          Techniques.SURW figure1
      in
      Alcotest.check stats_t
        (Printf.sprintf "SURW seed=%d runs=%d" seed runs)
        (naive_surw ~seed ~runs figure1)
        driver)
    [ (0, 1); (0, 57); (3, 200); (42, 100) ]

let test_dfs_matches_naive () =
  List.iter
    (fun (a, b) ->
      let driver =
        Techniques.run ~promote:promote_all
          { Techniques.default_options with Techniques.limit = 1_000_000 }
          Techniques.DFS (two_seq a b)
      in
      Alcotest.(check bool)
        (Printf.sprintf "DFS two_seq %d %d complete" a b)
        true driver.Stats.complete;
      Alcotest.(check int)
        (Printf.sprintf "DFS two_seq %d %d counted" a b)
        (naive_dfs_count (two_seq a b))
        driver.Stats.total)
    [ (1, 1); (2, 3); (3, 3); (4, 2) ]

(* --- the wall-clock deadline, distinct from the schedule limit --- *)

let test_deadline_distinct_from_limit () =
  (* an already-expired deadline stops the campaign after one execution *)
  let s =
    Sct_explore.Driver.explore ~promote:promote_all
      ~deadline:(Unix.gettimeofday () -. 1.)
      ~limit:1_000_000
      (Sct_explore.Seeded.strategy ~promote:promote_all ~seed:0
         Sct_explore.Seeded.rand figure1)
      figure1
  in
  Alcotest.(check int) "one schedule before the deadline check" 1
    s.Stats.total;
  Alcotest.(check bool) "deadline reported" true s.Stats.hit_deadline;
  Alcotest.(check bool) "not a limit stop" false s.Stats.hit_limit;
  (* through the options record *)
  let o =
    {
      Techniques.default_options with
      Techniques.limit = 1_000_000;
      time_limit = Some 0.;
    }
  in
  let s = Techniques.run ~promote:promote_all o Techniques.Rand figure1 in
  Alcotest.(check bool) "options deadline reported" true s.Stats.hit_deadline;
  Alcotest.(check bool) "options not a limit stop" false s.Stats.hit_limit;
  (* no deadline: the limit stop is reported as before *)
  let o = { o with Techniques.time_limit = None; limit = 10 } in
  let s = Techniques.run ~promote:promote_all o Techniques.Rand figure1 in
  Alcotest.(check bool) "limit stop" true s.Stats.hit_limit;
  Alcotest.(check bool) "no deadline stop" false s.Stats.hit_deadline;
  (* on a 2-domain pool the seeded techniques shard their run range, and
     the merged shards report the deadline stop as one domain does *)
  let o =
    {
      Techniques.default_options with
      Techniques.limit = 1_000;
      time_limit = Some 0.;
    }
  in
  Sct_parallel.Pool.with_pool ~jobs:2 (fun pool ->
      List.iter
        (fun t ->
          let name = Techniques.name t in
          let s =
            Sct_parallel.Drivers.run ~pool ~promote:promote_all o t figure1
          in
          Alcotest.(check bool)
            (name ^ " on 2 domains: deadline reported")
            true s.Stats.hit_deadline;
          Alcotest.(check bool)
            (name ^ " on 2 domains: not a limit stop")
            false s.Stats.hit_limit)
        Techniques.[ Rand; PCT; SURW ])

(* --- SURW --- *)

let test_surw_deterministic_and_sharded () =
  let o =
    { Techniques.default_options with Techniques.limit = 300; seed = 5 }
  in
  let s1 = Techniques.run ~promote:promote_all o Techniques.SURW figure1 in
  let s2 = Techniques.run ~promote:promote_all o Techniques.SURW figure1 in
  Alcotest.check stats_t "seed-deterministic" s1 s2;
  let par =
    Sct_parallel.Pool.with_pool ~jobs:4 (fun pool ->
        Sct_parallel.Drivers.run ~pool ~promote:promote_all o Techniques.SURW
          figure1)
  in
  Alcotest.check stats_t "jobs 1 == jobs 4" s1 par

let test_surw_finds_easy_bugs () =
  List.iter
    (fun bname ->
      let b = Option.get (Sctbench.Registry.by_name bname) in
      let o =
        { Techniques.default_options with Techniques.limit = 10_000 }
      in
      let promote =
        Sct_race.Promotion.promote
          (Techniques.detect_races o b.Sctbench.Bench.program)
      in
      let s =
        Techniques.run ~promote o Techniques.SURW b.Sctbench.Bench.program
      in
      Alcotest.(check bool) (bname ^ ": surw finds the bug") true
        (Stats.found s))
    [ "CS.lazy01_bad"; "CS.account_bad"; "misc.ctrace-test" ]

let test_surw_weights_cover_both_orders () =
  (* two threads, one long and one short: uniform Rand heavily favours
     schedules that retire the short thread early; SURW must still sample
     both relative orders of the racy accesses *)
  let s =
    Sct_explore.Seeded.explore ~promote:promote_all ~seed:0 ~runs:500
      Sct_explore.Seeded.surw (two_seq 1 8)
  in
  Alcotest.(check bool)
    "several distinct schedules" true
    (match Stats.distinct s with Some d -> d > 1 | None -> false)

(* --- the session law (Driver.start/advance, Techniques.session) ---
   One session advanced through non-decreasing limits must return, at each
   limit, the bytes of a fresh one-shot run at that limit: the campaign
   runner journals a tree cell's slices from one live session, and the
   journal must not tell whether the process was restarted in between. *)

module Driver = Sct_explore.Driver
module Bounded = Sct_explore.Bounded
module Por = Sct_explore.Por

let encode = Sct_store.Codec.encode_stats

(* Every arm of Techniques.session's dispatch match: the 11 techniques on
   their registered strategies, and the tree walkers under each [--por]
   mode and under prefix batching. *)
let session_configs =
  let o = Techniques.default_options in
  let tree = Techniques.[ DFS; IPB; IDB ] in
  List.map (fun t -> (Techniques.name t, o, t)) Techniques.all
  @ List.concat_map
      (fun mode ->
        List.map
          (fun t ->
            ( Techniques.name t ^ " --por " ^ Por.mode_name mode,
              { o with Techniques.por = Some mode },
              t ))
          tree)
      Por.[ Sleep; Dpor; Dpor_sleep ]
  @ List.map
      (fun t ->
        ( Techniques.name t ^ " --prefix-batch",
          { o with Techniques.prefix_batch = true },
          t ))
      tree

let preset t =
  match Techniques.bounds Techniques.default_options t with
  | Some b -> b
  | None -> Alcotest.fail (Techniques.name t ^ " has no bounds preset")

(* Driver sessions the dispatch match never builds: a level cap, whose
   finish does not report [new_at_bound] (so a paused level's count must
   not survive the resume), and [stop_on_bug], checked after the budget. *)
let driver_configs =
  [
    ( "IPB capped at level 1",
      false,
      fun () -> Bounded.strategy ~max_levels:1 (preset Techniques.IPB) );
    ( "IDB capped at level 2",
      false,
      fun () -> Bounded.strategy ~max_levels:2 (preset Techniques.IDB) );
    ( "DFS stopping on the first bug",
      true,
      fun () -> Bounded.strategy (preset Techniques.DFS) );
  ]

let session_benches =
  [|
    "CS.account_bad"; "CS.lazy01_bad"; "CS.reorder_3_bad"; "CS.deadlock01_bad";
  |]

type session_case = {
  source : [ `Bench of int | `Gen of int ];
  limits : int list;
      (** non-decreasing; a first limit of 0 pauses the campaign as its
          first phase opens *)
}

let session_case_gen =
  let open QCheck2.Gen in
  let* source =
    oneof
      [
        map (fun i -> `Bench i) (int_bound (Array.length session_benches - 1));
        map (fun s -> `Gen s) (int_bound 10_000);
      ]
  in
  let* first = int_bound 12 in
  let+ steps = list_size (int_range 1 4) (int_bound 40) in
  let limits =
    List.rev
      (List.fold_left (fun acc d -> (List.hd acc + d) :: acc) [ first ] steps)
  in
  { source; limits }

let print_session_case c =
  Printf.sprintf "%s, limits [%s]"
    (match c.source with
    | `Bench i -> session_benches.(i)
    | `Gen s -> Printf.sprintf "generated program, seed %d" s)
    (String.concat "; " (List.map string_of_int c.limits))

let prop_session_law =
  QCheck2.Test.make ~name:"a session advanced to L equals a fresh run at L"
    ~count:25 ~print:print_session_case session_case_gen (fun c ->
      let program =
        match c.source with
        | `Bench i ->
            (Option.get (Sctbench.Registry.by_name session_benches.(i)))
              .Sctbench.Bench.program
        | `Gen seed ->
            Sct_fuzz.Compile.program (Sct_fuzz.Gen.generate ~seed ())
      in
      let promote =
        Sct_race.Promotion.promote
          (Techniques.detect_races Techniques.default_options program)
      in
      let law name ~advance ~fresh =
        List.iter
          (fun limit ->
            let got = encode (advance ~limit)
            and want = encode (fresh ~limit) in
            if got <> want then
              QCheck2.Test.fail_reportf
                "%s at limit %d:@.session  %s@.one-shot %s" name limit got
                want)
          c.limits
      in
      List.iter
        (fun (name, o, t) ->
          law name
            ~advance:(Techniques.session ~promote o t program)
            ~fresh:(fun ~limit ->
              Techniques.run ~promote { o with Techniques.limit } t program))
        session_configs;
      List.iter
        (fun (name, stop_on_bug, strategy) ->
          let s = Driver.start ~promote ~stop_on_bug (strategy ()) program in
          law name
            ~advance:(fun ~limit -> Driver.advance s ~limit)
            ~fresh:(fun ~limit ->
              Driver.explore ~promote ~stop_on_bug ~limit (strategy ())
                program))
        driver_configs;
      true)

(* PCT's [choose] names its one partial case: an empty enabled set, which
   the engine never hands a scheduler. Called on one anyway, from inside a
   real execution, it raises that invariant; the run itself is unaffected. *)
let test_pct_empty_enabled_invariant () =
  let (module S) =
    Sct_explore.Seeded.strategy ~seed:0
      (Sct_explore.Seeded.pct ~change_points:2)
      (two_seq 2 2)
  in
  let st = S.init () in
  S.begin_run st;
  let raised = ref false in
  let scheduler (ctx : Runtime.ctx) =
    (match S.choose st { ctx with c_enabled = []; c_n_enabled = 0 } with
    | _ -> ()
    | exception Invalid_argument m ->
        raised := m = "Sct_explore.Seeded.pct: no enabled thread");
    S.choose st ctx
  in
  let r = Runtime.exec ~scheduler (two_seq 2 2) in
  Alcotest.(check bool) "named invariant" true !raised;
  Alcotest.(check string) "run unaffected" "ok" (Outcome.to_string r.r_outcome)

(* MapleAlg's stages are total: a run begun after the campaign ended, which
   the driver never begins, is a round-robin run that ends the phase again
   instead of an [assert false]. *)
let test_maple_total_after_finish () =
  let (module S) = Sct_explore.Maple_lite.strategy ~profile_runs:0 ~seed:0 () in
  let st = S.init () in
  (match S.next_phase st with
  | Sct_explore.Strategy.Finished _ -> ()
  | Sct_explore.Strategy.Phase _ -> Alcotest.fail "no profiling run, no phase");
  S.begin_run st;
  let r = Runtime.exec ~scheduler:(S.choose st) (two_seq 2 3) in
  let rr = Sct_explore.Replay.round_robin_run (two_seq 2 3) in
  Alcotest.(check bool) "round-robin schedule" true
    (Schedule.equal r.r_schedule rr.r_schedule);
  Alcotest.(check bool) "phase over" true (S.on_terminal st r).v_phase_over

let suites =
  [
    ( "strategy-driver",
      [
        Alcotest.test_case "Rand via driver == naive reference" `Quick
          test_rand_matches_naive;
        Alcotest.test_case "PCT via driver == naive reference" `Quick
          test_pct_matches_naive;
        Alcotest.test_case "SURW via driver == naive reference" `Quick
          test_surw_matches_naive;
        Alcotest.test_case "DFS via driver == naive enumeration" `Quick
          test_dfs_matches_naive;
        Alcotest.test_case "deadline reported distinctly from limit" `Quick
          test_deadline_distinct_from_limit;
        Alcotest.test_case "PCT names its empty-enabled-set invariant" `Quick
          test_pct_empty_enabled_invariant;
        Alcotest.test_case "MapleAlg stays total after its campaign" `Quick
          test_maple_total_after_finish;
      ] );
    ("strategy.session", [ QCheck_alcotest.to_alcotest prop_session_law ]);
    ( "surw",
      [
        Alcotest.test_case "seed-deterministic and jobs 1 == jobs 4" `Quick
          test_surw_deterministic_and_sharded;
        Alcotest.test_case "finds easy CS/misc bugs" `Slow
          test_surw_finds_easy_bugs;
        Alcotest.test_case "covers both orders of a skewed program" `Quick
          test_surw_weights_cover_both_orders;
      ] );
  ]
