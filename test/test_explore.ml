(* The explorers: DFS enumeration counts, iterative bounding semantics,
   the random walk, PCT and MapleLite. *)

open Sct_core

let promote_all _ = true

(* an iterative-bounding campaign, as the study runs it *)
let bounded technique ~limit program =
  Sct_explore.Techniques.(
    run ~promote:promote_all { default_options with limit } technique program)

(* main spawns one child doing [b] yields, then yields [a] times itself:
   the terminal schedules are exactly the interleavings of the two suffix
   sequences: C(a+b, a). *)
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

let rec binomial n k =
  if k = 0 || k = n then 1 else binomial (n - 1) (k - 1) + binomial (n - 1) k

let dfs ?count_exact ?(bound = Sct_explore.Dfs.Unbounded) ?(limit = 1_000_000)
    program =
  Sct_explore.Dfs.explore ~promote:promote_all ?count_exact ~bound ~limit
    program

let test_enumeration_count () =
  List.iter
    (fun (a, b) ->
      let r = dfs (two_seq a b) in
      Alcotest.(check bool) "complete" true r.Sct_explore.Dfs.complete;
      Alcotest.(check int)
        (Printf.sprintf "interleavings of %d and %d" a b)
        (binomial (a + b) a) r.Sct_explore.Dfs.counted)
    [ (1, 1); (2, 2); (3, 3); (4, 3); (5, 2) ]

let test_level_counts_partition () =
  (* the per-level exact counts partition the whole space *)
  let program = two_seq 3 3 in
  let total = (dfs program).Sct_explore.Dfs.counted in
  let rec sum c acc =
    let r =
      dfs ~bound:(Sct_explore.Dfs.Preemption c) ~count_exact:c program
    in
    let acc = acc + r.Sct_explore.Dfs.counted in
    if r.Sct_explore.Dfs.pruned then sum (c + 1) acc else acc
  in
  Alcotest.(check int) "sum of exact preemption levels" total (sum 0 0);
  let rec sum_d c acc =
    let r = dfs ~bound:(Sct_explore.Dfs.Delay c) ~count_exact:c program in
    let acc = acc + r.Sct_explore.Dfs.counted in
    if r.Sct_explore.Dfs.pruned then sum_d (c + 1) acc else acc
  in
  Alcotest.(check int) "sum of exact delay levels" total (sum_d 0 0)

let test_delay_subset_preemption () =
  let program = two_seq 3 3 in
  List.iter
    (fun c ->
      let d = dfs ~bound:(Sct_explore.Dfs.Delay c) program in
      let p = dfs ~bound:(Sct_explore.Dfs.Preemption c) program in
      Alcotest.(check bool)
        (Printf.sprintf "DB(%d) <= PB(%d)" c c)
        true
        (d.Sct_explore.Dfs.counted <= p.Sct_explore.Dfs.counted))
    [ 0; 1; 2; 3 ]

let test_zero_delay_unique () =
  (* exactly one schedule has zero delays: the deterministic RR schedule *)
  let r = dfs ~bound:(Sct_explore.Dfs.Delay 0) (two_seq 3 4) in
  Alcotest.(check int) "one zero-delay schedule" 1 r.Sct_explore.Dfs.counted

let test_round_robin_run () =
  (* the round-robin run is the zero-delay schedule, and PCT's probe is its
     length *)
  let program = two_seq 3 4 in
  let r = Sct_explore.Replay.round_robin_run ~promote:promote_all program in
  Alcotest.(check int) "no delay" 0 r.Runtime.r_dc;
  Alcotest.(check int) "PCT's depth range" r.Runtime.r_steps
    (Sct_explore.Pct.probe ~promote:promote_all program);
  (* with no enabled thread the engine reports a deadlock instead of
     calling the scheduler *)
  let deadlock () =
    let a = Sct.Mutex.create () and b = Sct.Mutex.create () in
    let t =
      Sct.spawn (fun () ->
          Sct.Mutex.lock b;
          Sct.yield ();
          Sct.Mutex.lock a)
    in
    Sct.Mutex.lock a;
    Sct.yield ();
    Sct.Mutex.lock b;
    Sct.join t
  in
  match (Sct_explore.Replay.round_robin_run deadlock).Runtime.r_outcome with
  | Outcome.Bug { bug = Outcome.Deadlock _; _ } -> ()
  | o -> Alcotest.failf "expected a deadlock, got %a" Outcome.pp o

let test_limit_respected () =
  let r = dfs ~limit:7 (two_seq 4 4) in
  Alcotest.(check int) "counted stops at the limit" 7 r.Sct_explore.Dfs.counted;
  Alcotest.(check bool) "limit flag" true r.Sct_explore.Dfs.hit_limit;
  Alcotest.(check bool) "not complete" false r.Sct_explore.Dfs.complete

let test_nondeterminism_detected () =
  (* state leaking across executions trips the replay check: the thread
     structure changes between executions, so a replayed decision sees a
     different enabled set *)
  let external_counter = ref 0 in
  let program () =
    incr external_counter;
    let t1 = Sct.spawn (fun () -> Sct.yield ()) in
    if !external_counter mod 2 = 0 then
      ignore (Sct.spawn (fun () -> Sct.yield ()));
    Sct.yield ();
    Sct.join t1
  in
  match dfs program with
  | (_ : Sct_explore.Dfs.level_result) ->
      Alcotest.fail "nondeterministic program was not rejected"
  | exception Failure msg ->
      Alcotest.(check bool) "mentions nondeterminism" true
        (Astring_contains.contains msg "nondeterministic")

(* --- iterative bounding --- *)

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

let test_bounded_reports_min_bound () =
  let ipb = bounded Sct_explore.Techniques.IPB ~limit:100_000 figure1 in
  Alcotest.(check (option int)) "min preemption bound" (Some 1)
    ipb.Sct_explore.Stats.bound;
  Alcotest.(check bool) "level completed" true
    ipb.Sct_explore.Stats.bound_complete;
  Alcotest.(check bool) "found" true (Sct_explore.Stats.found ipb)

let test_bounded_complete_no_bug () =
  (* a correct program: iterative bounding exhausts the space and reports
     completeness *)
  let program () =
    let m = Sct.Mutex.create () in
    let c = Sct.Var.make ~name:"c" 0 in
    let body () =
      Sct.Mutex.lock m;
      Sct.Var.write c (Sct.Var.read c + 1);
      Sct.Mutex.unlock m
    in
    let t1 = Sct.spawn body in
    let t2 = Sct.spawn body in
    Sct.join t1;
    Sct.join t2;
    Sct.check (Sct.Var.read c = 2) "no lost update"
  in
  let r = bounded Sct_explore.Techniques.IDB ~limit:1_000_000 program in
  Alcotest.(check bool) "complete" true r.Sct_explore.Stats.complete;
  Alcotest.(check int) "no buggy schedule" 0 r.Sct_explore.Stats.buggy

let test_bounded_first_bug_cumulative () =
  let idb = bounded Sct_explore.Techniques.IDB ~limit:100_000 figure1 in
  (match idb.Sct_explore.Stats.to_first_bug with
  | Some i -> Alcotest.(check bool) "first bug index positive" true (i >= 1)
  | None -> Alcotest.fail "bug not found");
  Alcotest.(check bool) "total >= new at bound" true
    (idb.Sct_explore.Stats.total >= idb.Sct_explore.Stats.new_at_bound)

(* --- random walk --- *)

let test_random_finds_trivial () =
  let program () = Sct.check false "always" in
  let r =
    Sct_explore.Random_walk.explore ~promote:promote_all ~seed:0 ~runs:5
      program
  in
  Alcotest.(check (option int)) "first run buggy" (Some 1)
    r.Sct_explore.Stats.to_first_bug;
  Alcotest.(check int) "all buggy" 5 r.Sct_explore.Stats.buggy

let test_random_seeded_deterministic () =
  let r1 =
    Sct_explore.Random_walk.explore ~promote:promote_all ~seed:3 ~runs:200
      figure1
  in
  let r2 =
    Sct_explore.Random_walk.explore ~promote:promote_all ~seed:3 ~runs:200
      figure1
  in
  Alcotest.(check int) "same buggy count" r1.Sct_explore.Stats.buggy
    r2.Sct_explore.Stats.buggy;
  Alcotest.(check (option int)) "same first bug" r1.Sct_explore.Stats.to_first_bug
    r2.Sct_explore.Stats.to_first_bug

let test_random_stop_on_bug () =
  let r =
    Sct_explore.Random_walk.explore ~promote:promote_all ~stop_on_bug:true
      ~seed:0 ~runs:10_000 figure1
  in
  Alcotest.(check int) "stopped at the first bug" 1 r.Sct_explore.Stats.buggy

(* --- PCT --- *)

let test_pct_finds_figure1 () =
  let r =
    Sct_explore.Pct.explore ~promote:promote_all ~change_points:1 ~seed:0
      ~runs:2_000 figure1
  in
  Alcotest.(check bool) "pct finds the bug" true (Sct_explore.Stats.found r)

(* --- MapleLite --- *)

let test_maple_forces_reversal () =
  (* init-before-use: the read-before-write reversal is exactly what the
     active phase forces *)
  let program () =
    let ready = Sct.Var.make ~name:"m_ready" 0 in
    let t = Sct.spawn (fun () -> Sct.Var.write ready 1) in
    let r = Sct.Var.read ready in
    Sct.join t;
    Sct.check (r = 1) "used before initialised"
  in
  let r =
    Sct_explore.Maple_lite.explore ~promote:promote_all ~seed:0 program
  in
  Alcotest.(check bool) "maple finds it" true (Sct_explore.Stats.found r)

let test_maple_few_schedules () =
  let r =
    Sct_explore.Maple_lite.explore ~promote:promote_all ~seed:0 figure1
  in
  Alcotest.(check bool) "explores few schedules" true
    (r.Sct_explore.Stats.total <= 40)

(* --- technique front-end --- *)

let test_run_all_pipeline () =
  let o =
    { Sct_explore.Techniques.default_options with Sct_explore.Techniques.limit = 2_000 }
  in
  let detection, results = Sct_explore.Techniques.run_all o figure1 in
  Alcotest.(check bool) "x and y promoted" true
    (List.length detection.Sct_race.Promotion.racy >= 2);
  List.iter
    (fun (t, s) ->
      match t with
      | Sct_explore.Techniques.IPB | Sct_explore.Techniques.IDB
      | Sct_explore.Techniques.DFS | Sct_explore.Techniques.Rand
      | Sct_explore.Techniques.Fair | Sct_explore.Techniques.Length
      | Sct_explore.Techniques.IVB | Sct_explore.Techniques.ITB ->
          Alcotest.(check bool)
            (Sct_explore.Techniques.name t ^ " finds figure1")
            true
            (Sct_explore.Stats.found s)
      | Sct_explore.Techniques.PCT | Sct_explore.Techniques.Maple
      | Sct_explore.Techniques.SURW ->
          ())
    results

(* --- Stats.merge laws ---
   The parallel engine (lib/parallel) folds per-shard statistics with
   [Stats.merge] in arbitrary grouping; these laws are what make any
   worker-completion order yield the same table. *)

let gen_stats =
  QCheck2.Gen.(
    let gen_witness =
      let* w_pc = int_bound 3 in
      let* w_dc = int_bound 4 in
      let* w_by = int_bound 2 in
      let* sched = list_size (int_bound 4) (int_bound 2) in
      let* msg = oneofl [ "a"; "b" ] in
      return
        {
          Sct_explore.Stats.w_bug = Outcome.Assertion_failure msg;
          w_by;
          w_schedule = Schedule.of_list sched;
          w_pc;
          w_dc;
        }
    in
    let* technique = oneofl [ "Rand"; "DFS" ] in
    let* bound = option (int_bound 3) in
    let* bound_complete = bool in
    let* to_first_bug = option (map (fun i -> i + 1) (int_bound 30)) in
    let* first_bug = option gen_witness in
    let* total = int_bound 100 in
    let* new_at_bound = int_bound 50 in
    let* buggy = int_bound 20 in
    let* complete = bool in
    let* hit_limit = bool in
    let* hit_deadline = bool in
    let* n_threads = int_bound 5 in
    let* max_enabled = int_bound 5 in
    let* max_sched_points = int_bound 50 in
    let* executions = int_bound 100 in
    let* steps_executed = int_bound 1000 in
    let* steps_saved = int_bound 1000 in
    let* por_pruned = int_bound 1000 in
    let* distinct =
      option (list_size (int_bound 5) (list_size (int_bound 4) (int_bound 2)))
    in
    return
      {
        (Sct_explore.Stats.base ~technique) with
        Sct_explore.Stats.bound;
        bound_complete;
        to_first_bug;
        first_bug;
        total;
        new_at_bound;
        buggy;
        complete;
        hit_limit;
        hit_deadline;
        n_threads;
        max_enabled;
        max_sched_points;
        executions;
        steps_executed;
        steps_saved;
        por_pruned;
        distinct_schedules =
          Option.map
            (fun ss ->
              List.fold_left
                (fun acc s -> Sct_explore.Stats.Sched_set.add s acc)
                Sct_explore.Stats.Sched_set.empty ss)
            distinct;
      })

let prop_merge_associative =
  QCheck2.Test.make ~name:"Stats.merge is associative" ~count:300
    QCheck2.Gen.(triple gen_stats gen_stats gen_stats)
    (fun (a, b, c) ->
      Sct_explore.Stats.equal
        (Sct_explore.Stats.merge a (Sct_explore.Stats.merge b c))
        (Sct_explore.Stats.merge (Sct_explore.Stats.merge a b) c))

let prop_merge_commutative =
  QCheck2.Test.make ~name:"Stats.merge is commutative" ~count:300
    QCheck2.Gen.(pair gen_stats gen_stats)
    (fun (a, b) ->
      Sct_explore.Stats.equal
        (Sct_explore.Stats.merge a b)
        (Sct_explore.Stats.merge b a))

let prop_merge_identity =
  QCheck2.Test.make ~name:"Stats.base is the identity of Stats.merge"
    ~count:300 gen_stats (fun a ->
      let id = Sct_explore.Stats.base ~technique:a.Sct_explore.Stats.technique in
      Sct_explore.Stats.equal (Sct_explore.Stats.merge a id) a
      && Sct_explore.Stats.equal (Sct_explore.Stats.merge id a) a)

let suites =
  [
    ( "dfs",
      [
        Alcotest.test_case "enumeration counts" `Quick test_enumeration_count;
        Alcotest.test_case "exact levels partition the space" `Quick
          test_level_counts_partition;
        Alcotest.test_case "delay subset of preemption" `Quick
          test_delay_subset_preemption;
        Alcotest.test_case "unique zero-delay schedule" `Quick
          test_zero_delay_unique;
        Alcotest.test_case "round-robin run: zero delays, deadlocks end it"
          `Quick test_round_robin_run;
        Alcotest.test_case "schedule limit" `Quick test_limit_respected;
        Alcotest.test_case "nondeterminism detected" `Quick
          test_nondeterminism_detected;
      ] );
    ( "bounded",
      [
        Alcotest.test_case "reports the minimal bound" `Quick
          test_bounded_reports_min_bound;
        Alcotest.test_case "complete space, no bug" `Quick
          test_bounded_complete_no_bug;
        Alcotest.test_case "first-bug index is cumulative" `Quick
          test_bounded_first_bug_cumulative;
      ] );
    ( "random-pct-maple",
      [
        Alcotest.test_case "random finds a trivial bug" `Quick
          test_random_finds_trivial;
        Alcotest.test_case "random is seeded-deterministic" `Quick
          test_random_seeded_deterministic;
        Alcotest.test_case "random stop-on-bug" `Quick test_random_stop_on_bug;
        Alcotest.test_case "pct finds figure1" `Quick test_pct_finds_figure1;
        Alcotest.test_case "maple forces a reversal" `Quick
          test_maple_forces_reversal;
        Alcotest.test_case "maple explores few schedules" `Quick
          test_maple_few_schedules;
        Alcotest.test_case "run_all pipeline" `Quick test_run_all_pipeline;
      ] );
    ( "stats-merge",
      [
        QCheck_alcotest.to_alcotest prop_merge_associative;
        QCheck_alcotest.to_alcotest prop_merge_commutative;
        QCheck_alcotest.to_alcotest prop_merge_identity;
      ] );
  ]
