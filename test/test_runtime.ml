(* Engine semantics: enabledness, blocking primitives, bug detection,
   determinism and replay. *)

open Sct_core

let rr (ctx : Runtime.ctx) =
  match
    Delay.deterministic_choice ~n:ctx.c_n_threads ~last:ctx.c_last
      ~enabled:ctx.c_enabled
  with
  | Some t -> t
  | None -> assert false

let run ?promote ?max_steps ?(scheduler = rr) program =
  Runtime.exec ?promote ?max_steps ~scheduler program

let check_outcome name expected result =
  Alcotest.(check string) name expected (Outcome.to_string result.Runtime.r_outcome)

let test_empty_program () =
  let r = run (fun () -> ()) in
  check_outcome "ok" "ok" r;
  Alcotest.(check int) "no steps" 0 r.Runtime.r_steps;
  Alcotest.(check int) "one thread" 1 r.Runtime.r_n_threads

let test_spawn_join () =
  let r =
    run (fun () ->
        let x = Sct.Var.make ~name:"x" 0 in
        let t = Sct.spawn (fun () -> Sct.Var.write x 1) in
        Sct.join t;
        Sct.check (Sct.Var.read x = 1) "join ordering")
  in
  check_outcome "ok" "ok" r;
  Alcotest.(check int) "two threads" 2 r.Runtime.r_n_threads

let test_join_blocks () =
  (* main joins before the child has run: the join must wait *)
  let r =
    run (fun () ->
        let done_ = Sct.Var.make ~name:"done" false in
        let t =
          Sct.spawn (fun () ->
              Sct.yield ();
              Sct.Var.write done_ true)
        in
        Sct.join t;
        Sct.check (Sct.Var.read done_) "child finished before join returned")
  in
  check_outcome "ok" "ok" r

let test_assertion_failure () =
  let r = run (fun () -> Sct.check false "boom") in
  Alcotest.(check bool) "buggy" true (Outcome.is_buggy r.Runtime.r_outcome)

let test_mutex_mutual_exclusion () =
  (* with a lock, no interleaving loses an update, whatever the scheduler *)
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
    Sct.check (Sct.Var.read c = 2) "both updates kept"
  in
  let r =
    Sct_explore.Dfs.explore ~promote:(fun _ -> true) ~bound:Sct_explore.Dfs.Unbounded
      ~limit:100_000 program
  in
  Alcotest.(check bool) "explored all" true r.Sct_explore.Dfs.complete;
  Alcotest.(check int) "no bugs" 0 r.Sct_explore.Dfs.buggy

let test_self_deadlock () =
  let r =
    run (fun () ->
        let m = Sct.Mutex.create () in
        Sct.Mutex.lock m;
        Sct.Mutex.lock m)
  in
  match r.Runtime.r_outcome with
  | Outcome.Bug { bug = Outcome.Deadlock _; _ } -> ()
  | o -> Alcotest.failf "expected deadlock, got %a" Outcome.pp o

let test_unlock_not_owner () =
  let r =
    run (fun () ->
        let m = Sct.Mutex.create () in
        Sct.Mutex.unlock m)
  in
  match r.Runtime.r_outcome with
  | Outcome.Bug { bug = Outcome.Lock_error _; _ } -> ()
  | o -> Alcotest.failf "expected lock error, got %a" Outcome.pp o

let test_use_after_destroy () =
  let r =
    run (fun () ->
        let m = Sct.Mutex.create () in
        Sct.Mutex.destroy m;
        Sct.Mutex.lock m)
  in
  match r.Runtime.r_outcome with
  | Outcome.Bug { bug = Outcome.Lock_error _; _ } -> ()
  | o -> Alcotest.failf "expected lock error, got %a" Outcome.pp o

let test_double_destroy () =
  let r =
    run (fun () ->
        let m = Sct.Mutex.create () in
        Sct.Mutex.destroy m;
        Sct.Mutex.destroy m)
  in
  Alcotest.(check bool) "buggy" true (Outcome.is_buggy r.Runtime.r_outcome)

let test_try_lock () =
  let r =
    run (fun () ->
        let m = Sct.Mutex.create () in
        Sct.check (Sct.Mutex.try_lock m) "first try_lock succeeds";
        let t =
          Sct.spawn (fun () ->
              Sct.check (not (Sct.Mutex.try_lock m)) "contended try_lock fails")
        in
        Sct.join t;
        Sct.Mutex.unlock m)
  in
  check_outcome "ok" "ok" r

let test_condvar_handshake () =
  let r =
    run (fun () ->
        let m = Sct.Mutex.create () in
        let c = Sct.Cond.create () in
        let ready = Sct.Var.make ~name:"ready" false in
        let waiter =
          Sct.spawn (fun () ->
              Sct.Mutex.lock m;
              while not (Sct.Var.read ready) do
                Sct.Cond.wait c m
              done;
              Sct.Mutex.unlock m)
        in
        Sct.Mutex.lock m;
        Sct.Var.write ready true;
        Sct.Cond.signal c;
        Sct.Mutex.unlock m;
        Sct.join waiter)
  in
  check_outcome "ok" "ok" r

let test_lost_signal_deadlocks () =
  (* signal before wait is lost: the waiter sleeps forever *)
  let r =
    run (fun () ->
        let m = Sct.Mutex.create () in
        let c = Sct.Cond.create () in
        Sct.Cond.signal c;
        let waiter =
          Sct.spawn (fun () ->
              Sct.Mutex.lock m;
              Sct.Cond.wait c m;
              Sct.Mutex.unlock m)
        in
        Sct.join waiter)
  in
  match r.Runtime.r_outcome with
  | Outcome.Bug { bug = Outcome.Deadlock _; _ } -> ()
  | o -> Alcotest.failf "expected deadlock, got %a" Outcome.pp o

let test_broadcast_wakes_all () =
  let r =
    run (fun () ->
        let m = Sct.Mutex.create () in
        let c = Sct.Cond.create () in
        let go = Sct.Var.make ~name:"go" false in
        let mk () =
          Sct.spawn (fun () ->
              Sct.Mutex.lock m;
              while not (Sct.Var.read go) do
                Sct.Cond.wait c m
              done;
              Sct.Mutex.unlock m)
        in
        let t1 = mk () in
        let t2 = mk () in
        Sct.yield ();
        Sct.Mutex.lock m;
        Sct.Var.write go true;
        Sct.Cond.broadcast c;
        Sct.Mutex.unlock m;
        Sct.join t1;
        Sct.join t2)
  in
  check_outcome "ok" "ok" r

let test_semaphore () =
  let r =
    run (fun () ->
        let s = Sct.Sem.create 0 in
        let t = Sct.spawn (fun () -> Sct.Sem.post s) in
        Sct.Sem.wait s;
        Sct.join t)
  in
  check_outcome "ok" "ok" r

let test_barrier () =
  let r =
    run (fun () ->
        let b = Sct.Barrier.create 2 in
        let x = Sct.Var.make ~name:"bx" 0 in
        let t =
          Sct.spawn (fun () ->
              Sct.Var.write x 1;
              Sct.Barrier.wait b;
              ())
        in
        Sct.Barrier.wait b;
        (* after the barrier the worker's pre-barrier write is visible *)
        Sct.check (Sct.Var.read x = 1) "barrier ordering";
        Sct.join t)
  in
  check_outcome "ok" "ok" r

let test_rwlock () =
  let r =
    run (fun () ->
        let l = Sct.Rwlock.create () in
        let x = Sct.Var.make ~name:"rw" 0 in
        let reader =
          Sct.spawn (fun () ->
              Sct.Rwlock.rd_lock l;
              ignore (Sct.Var.read x);
              Sct.Rwlock.unlock l)
        in
        Sct.Rwlock.wr_lock l;
        Sct.Var.write x 1;
        Sct.Rwlock.unlock l;
        Sct.join reader)
  in
  check_outcome "ok" "ok" r

let test_array_bounds () =
  let r =
    run (fun () ->
        let a = Sct.Arr.make ~name:"arr" 3 0 in
        Sct.Arr.set a 3 1)
  in
  match r.Runtime.r_outcome with
  | Outcome.Bug { bug = Outcome.Memory_error _; _ } -> ()
  | o -> Alcotest.failf "expected memory error, got %a" Outcome.pp o

let test_step_limit () =
  let r =
    run ~max_steps:50 (fun () ->
        let spin = Sct.Var.make ~name:"spin" true in
        let t =
          Sct.spawn (fun () ->
              while Sct.Var.read spin do
                Sct.yield ()
              done)
        in
        Sct.join t)
  in
  check_outcome "step limit" "step-limit" r

let test_determinism () =
  (* the same (random) scheduler decisions produce identical executions *)
  let program () =
    let x = Sct.Var.make ~name:"x" 0 in
    let m = Sct.Mutex.create () in
    let body d () =
      Sct.Mutex.lock m;
      Sct.Var.write x (Sct.Var.read x + d);
      Sct.Mutex.unlock m
    in
    let t1 = Sct.spawn (body 1) in
    let t2 = Sct.spawn (body 2) in
    Sct.join t1;
    Sct.join t2
  in
  let run_once seed =
    let rng = Random.State.make [| seed |] in
    let scheduler (ctx : Runtime.ctx) =
      List.nth ctx.c_enabled (Random.State.int rng (List.length ctx.c_enabled))
    in
    Runtime.exec ~promote:(fun _ -> true) ~scheduler program
  in
  let a = run_once 42 and b = run_once 42 in
  Alcotest.(check bool) "same schedule" true
    (Schedule.equal a.Runtime.r_schedule b.Runtime.r_schedule);
  Alcotest.(check int) "same pc" a.Runtime.r_pc b.Runtime.r_pc;
  Alcotest.(check int) "same dc" a.Runtime.r_dc b.Runtime.r_dc

let test_pc_dc_recorded () =
  (* the engine's incremental PC/DC agree with recomputation from the
     recorded decisions *)
  let program () =
    let x = Sct.Var.make ~name:"x" 0 in
    let t1 = Sct.spawn (fun () -> Sct.Var.write x 1) in
    let t2 = Sct.spawn (fun () -> Sct.Var.write x 2) in
    Sct.join t1;
    Sct.join t2
  in
  let rng = Random.State.make [| 7 |] in
  let scheduler (ctx : Runtime.ctx) =
    List.nth ctx.c_enabled (Random.State.int rng (List.length ctx.c_enabled))
  in
  let r = Runtime.exec ~promote:(fun _ -> true) ~scheduler program in
  let steps =
    List.map (fun d -> (d.Runtime.d_enabled, d.Runtime.d_chosen)) r.Runtime.r_decisions
  in
  Alcotest.(check int) "pc" (Preemption.count ~steps) r.Runtime.r_pc;
  let ns = List.map (fun d -> d.Runtime.d_n_threads) r.Runtime.r_decisions in
  let n_at i = List.nth ns i in
  Alcotest.(check int) "dc" (Delay.count ~n_at ~steps) r.Runtime.r_dc

let test_max_enabled_and_points () =
  let program () =
    let ts = List.init 3 (fun _ -> Sct.spawn (fun () -> Sct.yield ())) in
    List.iter Sct.join ts
  in
  let r = run program in
  Alcotest.(check int) "threads" 4 r.Runtime.r_n_threads;
  Alcotest.(check bool) "max enabled >= 3" true (r.Runtime.r_max_enabled >= 3);
  Alcotest.(check bool) "multi points > 0" true (r.Runtime.r_multi_points > 0)

let test_child_prefix_runs_eagerly () =
  (* a thread with no visible operations completes during spawn and
     contributes no schedule steps *)
  let r =
    run (fun () ->
        let side = ref 0 in
        let t = Sct.spawn (fun () -> side := 1) in
        assert (!side = 1);
        Sct.join t)
  in
  check_outcome "ok" "ok" r

(* A thread that keeps running takes the next decision on its own stack,
   from its fifth step on (the loop has then kept it running four times).
   What the scheduler or a listener raises there must still surface from
   [exec], never inside the program: these programs catch every exception
   their operations raise, so a leak shows as a run that ends normally. *)

exception Boom

let catching f = try f () with _ -> ()

let test_scheduler_exn_surfaces () =
  (* one thread: every decision keeps it running *)
  let scheduler (ctx : Runtime.ctx) =
    if ctx.c_step = 7 then raise Boom else List.hd ctx.c_enabled
  in
  let program () =
    for _ = 1 to 10 do
      catching Sct.yield
    done
  in
  match Runtime.exec ~scheduler program with
  | r -> Alcotest.failf "exec returned %a" Outcome.pp r.Runtime.r_outcome
  | exception Boom -> ()

let test_listener_exn_surfaces () =
  let acquires = ref 0 in
  let listener = function
    | Event.Acquire _ ->
        incr acquires;
        if !acquires = 4 then raise Boom
    | _ -> ()
  in
  let program () =
    let m = Sct.Mutex.create () in
    for _ = 1 to 6 do
      catching (fun () -> Sct.Mutex.lock m);
      catching (fun () -> Sct.Mutex.unlock m)
    done
  in
  match Runtime.exec ~listener ~scheduler:rr program with
  | r -> Alcotest.failf "exec returned %a" Outcome.pp r.Runtime.r_outcome
  | exception Boom -> Alcotest.(check int) "raised once" 4 !acquires

let test_cut_on_running_thread () =
  (* [Cut] raised where the running thread would continue still ends the
     execution as a truncated prefix *)
  let scheduler (ctx : Runtime.ctx) =
    if ctx.c_step = 7 then raise Runtime.Cut else List.hd ctx.c_enabled
  in
  let r =
    Runtime.exec ~scheduler (fun () ->
        for _ = 1 to 10 do
          catching Sct.yield
        done)
  in
  check_outcome "cut" "step-limit" r;
  Alcotest.(check int) "steps before the cut" 7 r.Runtime.r_steps

let suites =
  [
    ( "runtime",
      [
        Alcotest.test_case "empty program" `Quick test_empty_program;
        Alcotest.test_case "spawn and join" `Quick test_spawn_join;
        Alcotest.test_case "join blocks until child finishes" `Quick
          test_join_blocks;
        Alcotest.test_case "assertion failure" `Quick test_assertion_failure;
        Alcotest.test_case "mutex mutual exclusion (exhaustive)" `Quick
          test_mutex_mutual_exclusion;
        Alcotest.test_case "self deadlock" `Quick test_self_deadlock;
        Alcotest.test_case "unlock by non-owner" `Quick test_unlock_not_owner;
        Alcotest.test_case "use after destroy" `Quick test_use_after_destroy;
        Alcotest.test_case "double destroy" `Quick test_double_destroy;
        Alcotest.test_case "try_lock" `Quick test_try_lock;
        Alcotest.test_case "condvar handshake" `Quick test_condvar_handshake;
        Alcotest.test_case "lost signal deadlocks" `Quick
          test_lost_signal_deadlocks;
        Alcotest.test_case "broadcast wakes all" `Quick
          test_broadcast_wakes_all;
        Alcotest.test_case "semaphore" `Quick test_semaphore;
        Alcotest.test_case "barrier" `Quick test_barrier;
        Alcotest.test_case "rwlock" `Quick test_rwlock;
        Alcotest.test_case "array bounds" `Quick test_array_bounds;
        Alcotest.test_case "step limit" `Quick test_step_limit;
        Alcotest.test_case "determinism" `Quick test_determinism;
        Alcotest.test_case "pc/dc agree with recomputation" `Quick
          test_pc_dc_recorded;
        Alcotest.test_case "thread/enabled accounting" `Quick
          test_max_enabled_and_points;
        Alcotest.test_case "eager child prefix" `Quick
          test_child_prefix_runs_eagerly;
        Alcotest.test_case "scheduler exception surfaces from exec" `Quick
          test_scheduler_exn_surfaces;
        Alcotest.test_case "listener exception surfaces from exec" `Quick
          test_listener_exn_surfaces;
        Alcotest.test_case "cut where the thread would continue" `Quick
          test_cut_on_running_thread;
      ] );
  ]
