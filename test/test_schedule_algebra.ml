(* Unit and property tests for the schedule algebra: round-robin distance,
   preemption counting and delay counting (paper §2 definitions). *)

open Sct_core

let test_distance () =
  (* the paper's example: given four threads, distance(1,0) = 3 *)
  Alcotest.(check int) "distance(1,0) n=4" 3 (Tid.distance ~n:4 1 0);
  Alcotest.(check int) "distance(0,0)" 0 (Tid.distance ~n:4 0 0);
  Alcotest.(check int) "distance(2,3)" 1 (Tid.distance ~n:4 2 3);
  Alcotest.(check int) "distance(3,2) n=5" 4 (Tid.distance ~n:5 3 2)

let test_delays_paper_example () =
  (* paper §2: last = 3, enabled = {0,2,3,4}, N = 5: delays(α,2) = 3
     because threads 3, 4 and 0 are skipped (1 is not enabled) *)
  let enabled = [ 0; 2; 3; 4 ] in
  Alcotest.(check int) "delays to 2" 3
    (Delay.delays ~n:5 ~last:(Some 3) ~enabled 2);
  Alcotest.(check int) "delays to 3 (continue)" 0
    (Delay.delays ~n:5 ~last:(Some 3) ~enabled 3);
  Alcotest.(check int) "delays to 4" 1
    (Delay.delays ~n:5 ~last:(Some 3) ~enabled 4);
  Alcotest.(check int) "delays to 0" 2
    (Delay.delays ~n:5 ~last:(Some 3) ~enabled 0)

let test_delays_skips_disabled () =
  (* skipping a disabled thread costs nothing *)
  Alcotest.(check int) "last disabled" 0
    (Delay.delays ~n:3 ~last:(Some 0) ~enabled:[ 1; 2 ] 1);
  Alcotest.(check int) "one enabled skipped" 1
    (Delay.delays ~n:3 ~last:(Some 0) ~enabled:[ 1; 2 ] 2)

let test_first_step_free () =
  Alcotest.(check int) "first step: no delay" 0
    (Delay.delays ~n:3 ~last:None ~enabled:[ 0; 1; 2 ] 2);
  Alcotest.(check int) "first step: no preemption" 0
    (Preemption.delta ~last:None ~enabled:[ 0; 1; 2 ] 2)

let test_preemption_delta () =
  (* switching away from an enabled thread is a preemption *)
  Alcotest.(check int) "preemptive" 1
    (Preemption.delta ~last:(Some 0) ~enabled:[ 0; 1 ] 1);
  (* switching away from a disabled (blocked/finished) thread is not *)
  Alcotest.(check int) "non-preemptive" 0
    (Preemption.delta ~last:(Some 0) ~enabled:[ 1 ] 1);
  (* continuing the same thread is never a preemption *)
  Alcotest.(check int) "continuation" 0
    (Preemption.delta ~last:(Some 0) ~enabled:[ 0; 1 ] 0)

let test_rr_order () =
  Alcotest.(check (list int)) "rr from 3 of {0,2,3,4} n=5" [ 3; 4; 0; 2 ]
    (Delay.rr_order ~n:5 ~last:(Some 3) ~enabled:[ 0; 2; 3; 4 ]);
  Alcotest.(check (list int)) "rr from None" [ 0; 1; 2 ]
    (Delay.rr_order ~n:3 ~last:None ~enabled:[ 2; 0; 1 ])

let test_deterministic_choice () =
  Alcotest.(check (option int)) "continue last" (Some 1)
    (Delay.deterministic_choice ~n:3 ~last:(Some 1) ~enabled:[ 0; 1; 2 ]);
  Alcotest.(check (option int)) "next after blocked" (Some 2)
    (Delay.deterministic_choice ~n:3 ~last:(Some 1) ~enabled:[ 0; 2 ]);
  Alcotest.(check (option int)) "wrap around" (Some 0)
    (Delay.deterministic_choice ~n:3 ~last:(Some 2) ~enabled:[ 0 ]);
  Alcotest.(check (option int)) "none enabled" None
    (Delay.deterministic_choice ~n:3 ~last:(Some 2) ~enabled:[])

let test_counts_fold () =
  (* a full decision sequence: 3 threads, main spawns then blocks *)
  let steps =
    [ ([ 0 ], 0); ([ 0; 1 ], 0); ([ 0; 1; 2 ], 1); ([ 0; 1; 2 ], 2) ]
  in
  (* step 3 switches 0->1 while 0 is enabled (preemption), step 4 switches
     1->2 while 1 is enabled (preemption) *)
  Alcotest.(check int) "PC" 2 (Preemption.count ~steps);
  Alcotest.(check int) "DC" 2 (Delay.count ~n_at:(fun _ -> 3) ~steps)

(* Generators for decision sequences: a plausible random sequence of
   (enabled, chosen) with n threads. *)
let gen_steps n =
  QCheck2.Gen.(
    list_size (int_range 1 40)
      (let* enabled =
         map
           (fun picks ->
             List.sort_uniq compare (List.map (fun i -> abs i mod n) picks))
           (list_size (int_range 1 n) (int_range 0 (n - 1)))
       in
       let enabled = if enabled = [] then [ 0 ] else enabled in
       let* idx = int_range 0 (List.length enabled - 1) in
       return (enabled, List.nth enabled idx)))

(* DC >= PC: the set of schedules with at most c delays is a subset of the
   set with at most c preemptions (paper §2). *)
let prop_dc_ge_pc =
  QCheck2.Test.make ~name:"delay count >= preemption count" ~count:500
    (gen_steps 4) (fun steps ->
      Delay.count ~n_at:(fun _ -> 4) ~steps >= Preemption.count ~steps)

(* The deterministic choice is the unique zero-delay extension. *)
let prop_det_choice_zero_delay =
  QCheck2.Test.make ~name:"deterministic choice costs zero delays" ~count:500
    (gen_steps 4) (fun steps ->
      List.for_all
        (fun (enabled, _) ->
          List.for_all
            (fun last ->
              match Delay.deterministic_choice ~n:4 ~last ~enabled with
              | Some t -> Delay.delays ~n:4 ~last ~enabled t = 0
              | None -> false)
            [ None; Some 0; Some 1; Some 2; Some 3 ])
        steps)

(* rr_order sorts by per-choice delay cost, and the costs are exactly
   0, 1, 2, ... for successive elements. *)
let prop_rr_order_costs =
  QCheck2.Test.make ~name:"rr_order is sorted by delay cost" ~count:500
    (gen_steps 5) (fun steps ->
      List.for_all
        (fun (enabled, _) ->
          let order = Delay.rr_order ~n:5 ~last:(Some 2) ~enabled in
          let costs =
            List.map (fun t -> Delay.delays ~n:5 ~last:(Some 2) ~enabled t) order
          in
          costs = List.init (List.length order) (fun i -> i))
        steps)

(* The sort-by-distance definition [rr_order] had before it became a
   rotation, kept as the reference the rotation must reproduce. *)
let rr_order_by_sort ~n ~last ~enabled =
  match enabled with
  | [] | [ _ ] -> enabled
  | _ ->
      let start = match last with None -> 0 | Some l -> l in
      let key t = Tid.distance ~n start t in
      List.sort (fun a b -> Int.compare (key a) (key b)) enabled

(* A thread count, a set of its threads (possibly empty) in ascending
   order, and the same set shuffled. *)
let gen_enabled_set =
  QCheck2.Gen.(
    let* n = int_range 1 12 in
    let* bits = list_repeat n bool in
    let set = List.filteri (fun i _ -> List.nth bits i) (List.init n Fun.id) in
    let* shuffled = shuffle_l set in
    return (n, set, shuffled))

let print_enabled_set (n, set, shuffled) =
  let l xs = String.concat ";" (List.map string_of_int xs) in
  Printf.sprintf "n=%d set=[%s] shuffled=[%s]" n (l set) (l shuffled)

let every_last n = None :: List.init n (fun l -> Some l)

let prop_rr_order_rotation =
  QCheck2.Test.make ~name:"rr_order rotation == sort by distance" ~count:500
    ~print:print_enabled_set gen_enabled_set (fun (n, set, shuffled) ->
      List.for_all
        (fun last ->
          List.for_all
            (fun enabled ->
              Delay.rr_order ~n ~last ~enabled
              = rr_order_by_sort ~n ~last ~enabled)
            [ set; shuffled ])
        (every_last n))

(* The bound-cost kernel's candidates are exactly the old per-thread
   filter over round-robin order, and it reports a cut exactly when that
   filter dropped a thread. *)
let prop_candidates_filter =
  QCheck2.Test.make ~name:"candidates == filter of rr_order by reference cost"
    ~count:300 ~print:print_enabled_set gen_enabled_set
    (fun (n, set, shuffled) ->
      let open Sct_explore in
      let shapes =
        [
          (Bound_cost.Free, fun ~last:_ ~enabled:_ _ -> 0);
          ( Bound_cost.Preemptions,
            fun ~last ~enabled t -> Preemption.delta ~last ~enabled t );
          (Bound_cost.Delays, fun ~last ~enabled t -> Delay.delays ~n ~last ~enabled t);
        ]
      in
      List.for_all
        (fun (shape, reference) ->
          List.for_all
            (fun last ->
              List.for_all
                (fun enabled ->
                  List.for_all
                    (fun budget ->
                      let order = rr_order_by_sort ~n ~last ~enabled in
                      let expected =
                        List.filter
                          (fun t -> reference ~last ~enabled t <= budget)
                          order
                      in
                      Bound_cost.candidates shape ~budget ~n ~last ~enabled
                      = (expected, List.compare_lengths expected order < 0))
                    [ -1; 0; 1; 2; 3; 11; max_int ])
                [ set; shuffled ])
            (every_last n))
        shapes)

(* --- edge cases: the empty schedule and the schedule container laws --- *)

let test_empty_schedule () =
  Alcotest.(check int) "length empty" 0 (Schedule.length Schedule.empty);
  Alcotest.(check (option int)) "last empty" None (Schedule.last Schedule.empty);
  Alcotest.(check (list int)) "to_list empty" []
    (Schedule.to_list Schedule.empty);
  Alcotest.(check bool) "empty equals of_list []" true
    (Schedule.equal Schedule.empty (Schedule.of_list []));
  (* counting over zero decisions is zero, not an error *)
  Alcotest.(check int) "PC of no steps" 0 (Preemption.count ~steps:[]);
  Alcotest.(check int) "DC of no steps" 0
    (Delay.count ~n_at:(fun _ -> 1) ~steps:[])

let prop_schedule_container_laws =
  QCheck2.Test.make ~name:"schedule: of_list/to_list/snoc/last laws"
    ~count:300
    QCheck2.Gen.(list (int_range 0 7))
    (fun l ->
      let s = Schedule.of_list l in
      Schedule.to_list s = l
      && Schedule.length s = List.length l
      && Schedule.equal s s
      && List.for_all
           (fun t ->
             let s' = Schedule.snoc s t in
             Schedule.last s' = Some t
             && Schedule.length s' = Schedule.length s + 1
             && Schedule.to_list s' = l @ [ t ])
           [ 0; 3 ])

(* A single-thread program has exactly one schedule: DFS exhausts the space
   in one execution and no technique can ever pay a preemption or delay. *)
let test_single_thread_program () =
  let program () =
    let x = Sct_core.Sct.Var.make ~name:"st_x" 0 in
    for _ = 1 to 5 do
      Sct_core.Sct.yield ();
      Sct_core.Sct.Var.write x (Sct_core.Sct.Var.read x + 1)
    done;
    Sct_core.Sct.check (Sct_core.Sct.Var.read x = 5) "st"
  in
  let r =
    Sct_explore.Dfs.explore
      ~promote:(fun _ -> true)
      ~bound:Sct_explore.Dfs.Unbounded ~limit:10 program
  in
  Alcotest.(check int) "exactly one terminal schedule" 1
    r.Sct_explore.Dfs.executions;
  Alcotest.(check bool) "space exhausted" true r.Sct_explore.Dfs.complete;
  Alcotest.(check bool) "no bug" false (r.Sct_explore.Dfs.first_bug <> None);
  (* every decision continues the only runnable thread: pc = dc = 0 *)
  let rr =
    Sct_explore.Replay.replay
      ~promote:(fun _ -> true)
      ~schedule:Schedule.empty program
  in
  match rr with
  | None -> Alcotest.fail "replay failed"
  | Some res ->
      Alcotest.(check int) "pc = 0" 0 res.Runtime.r_pc;
      Alcotest.(check int) "dc = 0" 0 res.Runtime.r_dc

let prop_distance_roundtrip =
  QCheck2.Test.make ~name:"distance: (x + d) mod n = y" ~count:500
    QCheck2.Gen.(
      let* n = int_range 1 16 in
      let* x = int_range 0 (n - 1) in
      let* y = int_range 0 (n - 1) in
      return (n, x, y))
    (fun (n, x, y) ->
      let d = Tid.distance ~n x y in
      0 <= d && d < n && (x + d) mod n = y)

let suites =
  [
    ( "schedule-algebra",
      [
        Alcotest.test_case "round-robin distance" `Quick test_distance;
        Alcotest.test_case "delays: paper example" `Quick
          test_delays_paper_example;
        Alcotest.test_case "delays: disabled threads are free" `Quick
          test_delays_skips_disabled;
        Alcotest.test_case "first step costs nothing" `Quick
          test_first_step_free;
        Alcotest.test_case "preemption delta" `Quick test_preemption_delta;
        Alcotest.test_case "rr_order" `Quick test_rr_order;
        Alcotest.test_case "deterministic choice" `Quick
          test_deterministic_choice;
        Alcotest.test_case "count folds" `Quick test_counts_fold;
        Alcotest.test_case "empty schedule" `Quick test_empty_schedule;
        Alcotest.test_case "single-thread program: pc = dc = 0" `Quick
          test_single_thread_program;
        QCheck_alcotest.to_alcotest prop_schedule_container_laws;
        QCheck_alcotest.to_alcotest prop_dc_ge_pc;
        QCheck_alcotest.to_alcotest prop_det_choice_zero_delay;
        QCheck_alcotest.to_alcotest prop_rr_order_costs;
        QCheck_alcotest.to_alcotest prop_rr_order_rotation;
        QCheck_alcotest.to_alcotest prop_candidates_filter;
        QCheck_alcotest.to_alcotest prop_distance_roundtrip;
      ] );
  ]
