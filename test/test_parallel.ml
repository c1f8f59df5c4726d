(* The domain-pool execution engine (lib/parallel): pool semantics and the
   determinism guarantee — parallel drivers produce statistics equal to the
   sequential techniques for every pool size. *)

module Pool = Sct_parallel.Pool

let promote_all _ = true

let stats_t =
  Alcotest.testable Sct_explore.Stats.pp Sct_explore.Stats.equal

(* --- pool --- *)

(* Spin until [cond ()] holds or [secs] seconds pass, and say which: a
   regression then fails the test instead of hanging it. *)
let wait_until ?(secs = 10.) cond =
  let deadline = Unix.gettimeofday () +. secs in
  let rec spin () =
    cond ()
    || Unix.gettimeofday () < deadline
       && begin
            Domain.cpu_relax ();
            spin ()
          end
  in
  spin ()

let raise_boom () = raise (Failure "boom") [@@inline never]

(* Occupy the one worker of a 2-job pool until [release] is set. The caller
   runs tasks only inside [await] and [shutdown], so the worker takes it. *)
let hold_worker pool =
  let started = Atomic.make false and release = Atomic.make false in
  let held =
    Pool.submit pool (fun () ->
        Atomic.set started true;
        wait_until (fun () -> Atomic.get release))
  in
  Alcotest.(check bool)
    "the worker holds a task" true
    (wait_until (fun () -> Atomic.get started));
  (held, release)

(* A task that records the domain it runs on. *)
let recording_domain ran_on f () =
  Atomic.set ran_on (Some (Domain.self () :> int));
  f ()

let test_pool_exception_propagates () =
  let recording = Printexc.backtrace_status () in
  Printexc.record_backtrace true;
  Fun.protect ~finally:(fun () -> Printexc.record_backtrace recording)
  @@ fun () ->
  Pool.with_pool ~jobs:2 (fun pool ->
      let boom = Pool.submit pool (fun () -> raise_boom ()) in
      (match Pool.await boom with
      | _ -> Alcotest.fail "expected Failure"
      | exception Failure m -> Alcotest.(check string) "message" "boom" m);
      (* the raising task did not kill its worker: the pool stays usable *)
      let ok = Pool.submit pool (fun () -> 6 * 7) in
      Alcotest.(check int) "pool still works" 42 (Pool.await ok);
      (* Hold the one worker, so that the caller itself runs the raising
         task while it awaits [held]; the task after it releases [held]. *)
      let held, release = hold_worker pool in
      let ran_on = Atomic.make None in
      let boom = Pool.submit pool (recording_domain ran_on raise_boom) in
      let released = Pool.submit pool (fun () -> Atomic.set release true) in
      Alcotest.(check bool) "held task released" true (Pool.await held);
      Alcotest.(check (option int))
        "the caller ran the raising task"
        (Some (Domain.self () :> int))
        (Atomic.get ran_on);
      (match Pool.await boom with
      | _ -> Alcotest.fail "expected Failure"
      | exception Failure m ->
          let bt =
            Printexc.raw_backtrace_to_string (Printexc.get_raw_backtrace ())
          in
          Alcotest.(check string) "its own future's message" "boom" m;
          Alcotest.(check bool)
            ("the task's backtrace rides along:\n" ^ bt)
            true
            (Astring_contains.contains bt "raise_boom"));
      Pool.await released;
      let ok = Pool.submit pool (fun () -> 6 * 7) in
      Alcotest.(check int) "pool still works after a caller-run raise" 42
        (Pool.await ok))

(* N tasks that can finish only together, each waiting for the other N - 1
   at a rendezvous: on a pool of N domains they run on N distinct domains,
   and the domain that awaits them is one. *)
let test_pool_caller_runs_tasks () =
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun pool ->
          let arrived = Atomic.make 0 in
          let task () =
            Atomic.incr arrived;
            ( (Domain.self () :> int),
              wait_until (fun () -> Atomic.get arrived >= jobs) )
          in
          let results =
            List.init jobs (fun _ -> Pool.submit pool task)
            |> List.map Pool.await
          in
          let label = Printf.sprintf "jobs:%d " jobs in
          Alcotest.(check bool)
            (label ^ "every task met the others")
            true
            (List.for_all snd results);
          let domains = List.sort_uniq compare (List.map fst results) in
          Alcotest.(check int)
            (label ^ "distinct domains") jobs (List.length domains);
          Alcotest.(check bool)
            (label ^ "the awaiting domain ran a task")
            true
            (List.mem (Domain.self () :> int) domains)))
    [ 2; 3 ]

(* Shutting down with the one worker held: the caller drains the queue,
   so the task that releases the worker runs on the caller. *)
let test_pool_shutdown_drains_on_caller () =
  let pool = Pool.create ~jobs:2 in
  let held, release = hold_worker pool in
  let ran_on = Atomic.make None in
  let _released =
    Pool.submit pool
      (recording_domain ran_on (fun () -> Atomic.set release true))
  in
  Pool.shutdown pool;
  Alcotest.(check (option int))
    "the caller ran the queued task"
    (Some (Domain.self () :> int))
    (Atomic.get ran_on);
  Alcotest.(check bool) "the held task was released" true (Pool.await held)

(* a one-job pool runs tasks inline on the submitting domain and — unlike
   a real worker pool — leaves the process able to fork *)
let test_pool_inline () =
  let before = Sct_explore.Prefix_exec.fork_available () in
  Pool.with_pool ~jobs:1 (fun pool ->
      Alcotest.(check int) "size" 1 (Pool.size pool);
      Alcotest.(check bool) "one-job pool does not disable fork" before
        (Sct_explore.Prefix_exec.fork_available ());
      let f = Pool.submit pool (fun () -> 6 * 7) in
      Alcotest.(check int) "inline task" 42 (Pool.await f));
  Pool.with_pool ~jobs:2 (fun _pool ->
      Alcotest.(check bool) "a multi-worker pool disables fork" false
        (Sct_explore.Prefix_exec.fork_available ()));
  (* the runtime refuses fork once a second domain ever existed, so it
     stays off for the rest of the process *)
  Alcotest.(check bool) "fork stays disabled after shutdown" false
    (Sct_explore.Prefix_exec.fork_available ())

(* When the body of [with_pool] raises, the queued tasks are dropped, not
   run: only the tasks already started finish, and a dropped task's future
   raises [Cancelled] instead of blocking its [await]. *)
let test_pool_raise_cancels_queued () =
  let ran = Atomic.make 0 in
  let futs = ref [] in
  (match
     Pool.with_pool ~jobs:2 (fun pool ->
         futs :=
           List.init 40 (fun _ ->
               Pool.submit pool (fun () ->
                   Unix.sleepf 0.05;
                   Atomic.incr ran));
         Pool.await (List.hd !futs);
         failwith "body")
   with
  | () -> Alcotest.fail "with_pool returned"
  | exception Failure m -> Alcotest.(check string) "body's exception" "body" m);
  let n = Atomic.get ran in
  if n > 4 then Alcotest.failf "%d of 40 queued tasks ran" n;
  match Pool.await (List.nth !futs 39) with
  | () -> Alcotest.fail "the last task ran"
  | exception Pool.Cancelled -> ()

let test_pool_many_tasks () =
  Pool.with_pool ~jobs:4 (fun pool ->
      let futs = List.init 50 (fun i -> Pool.submit pool (fun () -> i * i)) in
      List.iteri
        (fun i f -> Alcotest.(check int) "value" (i * i) (Pool.await f))
        futs)

let bench_program name =
  (Option.get (Sctbench.Registry.by_name name)).Sctbench.Bench.program

(* --- determinism: parallel drivers == sequential techniques --- *)

let all_techniques = Sct_explore.Techniques.all

let det_options =
  { Sct_explore.Techniques.default_options with
    Sct_explore.Techniques.limit = 200 }

(* The options that change how a tree cell runs: prefix batching, POR, and
   both at once (POR wins). A pool's fan-out reaches only seeded sessions,
   so a batched or reduced cell must still equal its sequential run when
   given one. *)
let det_option_sets =
  let open Sct_explore.Techniques in
  [
    ("default", det_options);
    ("prefix-batch", { det_options with prefix_batch = true });
    ("por", { det_options with por = Some Sct_explore.Por.Dpor_sleep });
    ( "prefix-batch+por",
      { det_options with prefix_batch = true; por = Some Dpor_sleep } );
  ]

let test_drivers_match_sequential () =
  Pool.with_pool ~jobs:4 (fun pool ->
      List.iter
        (fun (oname, o) ->
          List.iter
            (fun bname ->
              let program = bench_program bname in
              let detection, seq =
                Sct_explore.Techniques.run_all ~techniques:all_techniques o
                  program
              in
              let promote = Sct_race.Promotion.promote detection in
              List.iter
                (fun (t, s) ->
                  Alcotest.check stats_t
                    (oname ^ "/" ^ bname ^ "/"
                    ^ Sct_explore.Techniques.name t)
                    s
                    (Sct_explore.Techniques.run ~promote
                       ~fan_out:(Sct_parallel.Drivers.run_seeds ~pool)
                       o t program))
                seq)
            [ "CS.lazy01_bad"; "CS.twostage_bad"; "CS.reorder_3_bad" ])
        det_option_sets)

(* MapleAlg ignores a pool's fan-out, so on a pool it runs the same driver
   loop as [Techniques.run] and stops at the wall-clock deadline after its
   first execution. *)
let test_maple_deadline_on_pool () =
  let program = bench_program "CS.twostage_100_bad" in
  let o =
    { det_options with Sct_explore.Techniques.time_limit = Some 0.0 }
  in
  let maple = Sct_explore.Techniques.Maple in
  let seq = Sct_explore.Techniques.run ~promote:promote_all o maple program in
  let par =
    Pool.with_pool ~jobs:2 (fun pool ->
        Sct_explore.Techniques.run ~promote:promote_all
          ~fan_out:(Sct_parallel.Drivers.run_seeds ~pool)
          o maple program)
  in
  Alcotest.check stats_t "2-domain pool == sequential" seq par;
  Alcotest.(check bool) "hit_deadline" true par.Sct_explore.Stats.hit_deadline;
  Alcotest.(check int) "one execution" 1 par.Sct_explore.Stats.executions

let test_suite_matches_sequential () =
  let benches =
    List.map
      (fun n -> Option.get (Sctbench.Registry.by_name n))
      [ "CS.lazy01_bad"; "CS.account_bad"; "CS.twostage_bad" ]
  in
  let seq = Sct_report.Run_data.run_all det_options benches in
  let par =
    Pool.with_pool ~jobs:4 (fun pool ->
        Sct_parallel.Suite.run_all ~pool det_options benches)
  in
  List.iter2
    (fun (a : Sct_report.Run_data.row) (b : Sct_report.Run_data.row) ->
      Alcotest.(check int)
        (a.Sct_report.Run_data.bench.Sctbench.Bench.name ^ ": racy")
        a.Sct_report.Run_data.racy_locations
        b.Sct_report.Run_data.racy_locations;
      List.iter2
        (fun (t, s) (_, s') ->
          Alcotest.check stats_t
            (a.Sct_report.Run_data.bench.Sctbench.Bench.name ^ "/"
           ^ Sct_explore.Techniques.name t)
            s s')
        a.Sct_report.Run_data.results b.Sct_report.Run_data.results)
    seq par

let suites =
  [
    ( "pool",
      [
        Alcotest.test_case "worker exception propagates" `Quick
          test_pool_exception_propagates;
        Alcotest.test_case "inline one-job pool" `Quick test_pool_inline;
        Alcotest.test_case "the awaiting domain runs tasks" `Quick
          test_pool_caller_runs_tasks;
        Alcotest.test_case "shutdown drains on the caller too" `Quick
          test_pool_shutdown_drains_on_caller;
        Alcotest.test_case "many tasks" `Quick test_pool_many_tasks;
        Alcotest.test_case "a raising body cancels queued tasks" `Quick
          test_pool_raise_cancels_queued;
      ] );
    ( "parallel-determinism",
      [
        Alcotest.test_case "drivers == sequential techniques" `Slow
          test_drivers_match_sequential;
        Alcotest.test_case "MapleAlg honours --time-limit on a pool" `Quick
          test_maple_deadline_on_pool;
        Alcotest.test_case "suite rows == sequential rows" `Slow
          test_suite_matches_sequential;
      ] );
  ]
