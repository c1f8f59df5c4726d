(* Engine edge cases: primitive semantics under exhaustive exploration. *)

open Sct_core

let promote_all _ = true

(* exhaustive verification via DPOR+sleep: covers every happens-before
   class, so schedule spaces too large for plain DFS stay checkable *)
let verify ?(limit = 400_000) program =
  let r =
    Sct_explore.Por.explore ~promote:promote_all
      ~mode:Sct_explore.Por.Dpor_sleep ~limit program
  in
  Alcotest.(check bool) "space exhausted" true r.Sct_explore.Stats.complete;
  Alcotest.(check int) "no bugs" 0 r.Sct_explore.Stats.buggy

let falsify ?(limit = 100_000) program =
  let r =
    Sct_explore.Dfs.explore ~promote:promote_all ~bound:Sct_explore.Dfs.Unbounded
      ~limit program
  in
  Alcotest.(check bool) "bug found" true (r.Sct_explore.Dfs.to_first_bug <> None)

let test_barrier_reuse () =
  (* a cyclic barrier used for several phases keeps both threads in
     lock-step in every interleaving *)
  verify (fun () ->
      let b = Sct.Barrier.create 2 in
      let phase = Sct.Var.make ~name:"phase_w" 0 in
      let t =
        Sct.spawn (fun () ->
            for p = 1 to 3 do
              Sct.Var.write phase p;
              Sct.Barrier.wait b
            done)
      in
      for p = 1 to 3 do
        Sct.Barrier.wait b;
        (* the worker's write for phase p landed; it may already have run
           ahead to phase p+1 (but no further: the next barrier stops it) *)
        let v = Sct.Var.read phase in
        Sct.check (v = p || v = p + 1) "phases in lock-step"
      done;
      Sct.join t)

let test_barrier_three_parties () =
  verify (fun () ->
      let b = Sct.Barrier.create 3 in
      let count = Sct.Atomic.make ~name:"b3_count" 0 in
      let ts =
        List.init 2 (fun _ ->
            Sct.spawn (fun () ->
                Sct.Atomic.incr count;
                Sct.Barrier.wait b;
                Sct.check (Sct.Atomic.load count = 3) "all arrived"))
      in
      Sct.Atomic.incr count;
      Sct.Barrier.wait b;
      Sct.check (Sct.Atomic.load count = 3) "all arrived";
      List.iter Sct.join ts)

let test_rwlock_readers_share () =
  (* two readers can hold the lock at once: a counter of concurrent readers
     observably reaches 2 in some interleaving *)
  let reached_two = ref false in
  let program () =
    let l = Sct.Rwlock.create () in
    let inside = Sct.Atomic.make ~name:"rw_inside" 0 in
    let reader () =
      Sct.Rwlock.rd_lock l;
      if Sct.Atomic.fetch_and_add inside 1 = 1 then reached_two := true;
      Sct.Atomic.decr inside;
      Sct.Rwlock.unlock l
    in
    let t1 = Sct.spawn reader in
    let t2 = Sct.spawn reader in
    Sct.join t1;
    Sct.join t2
  in
  verify program;
  Alcotest.(check bool) "two readers overlapped in some schedule" true
    !reached_two

let test_rwlock_writer_excludes () =
  (* a writer never overlaps a reader, in any interleaving *)
  verify (fun () ->
      let l = Sct.Rwlock.create () in
      let inside_w = Sct.Var.make ~name:"rw_w" false in
      let t =
        Sct.spawn (fun () ->
            Sct.Rwlock.wr_lock l;
            Sct.Var.write inside_w true;
            Sct.yield ();
            Sct.Var.write inside_w false;
            Sct.Rwlock.unlock l)
      in
      Sct.Rwlock.rd_lock l;
      Sct.check (not (Sct.Var.read inside_w)) "no writer while reading";
      Sct.Rwlock.unlock l;
      Sct.join t)

let test_atomic_cas_semantics () =
  verify (fun () ->
      let a = Sct.Atomic.make ~name:"cas_a" 0 in
      Sct.check (Sct.Atomic.compare_and_set a 0 5) "cas succeeds on match";
      Sct.check (not (Sct.Atomic.compare_and_set a 0 9)) "cas fails on stale";
      Sct.check (Sct.Atomic.load a = 5) "value from the successful cas";
      Sct.check (Sct.Atomic.exchange a 7 = 5) "exchange returns the old";
      Sct.check (Sct.Atomic.fetch_and_add a 3 = 7) "faa returns the old";
      Sct.check (Sct.Atomic.load a = 10) "faa added")

let test_atomic_increments_never_lost () =
  (* fetch_and_add is atomic even though threads interleave at every op *)
  verify (fun () ->
      let a = Sct.Atomic.make ~name:"atomic_sum" 0 in
      let ts =
        List.init 3 (fun _ -> Sct.spawn (fun () -> Sct.Atomic.incr a))
      in
      List.iter Sct.join ts;
      Sct.check (Sct.Atomic.load a = 3) "all increments kept")

let test_plain_increments_can_be_lost () =
  (* the same pattern on plain variables IS a lost-update bug *)
  falsify (fun () ->
      let v = Sct.Var.make ~name:"plain_sum" 0 in
      let ts =
        List.init 2
          (fun _ -> Sct.spawn (fun () -> Sct.Var.write v (Sct.Var.read v + 1)))
      in
      List.iter Sct.join ts;
      Sct.check (Sct.Var.read v = 2) "an update was lost")

let test_semaphore_counting () =
  verify (fun () ->
      let s = Sct.Sem.create 2 in
      let inside = Sct.Atomic.make ~name:"sem_inside" 0 in
      let worker () =
        Sct.Sem.wait s;
        Sct.check (Sct.Atomic.fetch_and_add inside 1 < 2) "at most 2 inside";
        Sct.Atomic.decr inside;
        Sct.Sem.post s
      in
      let ts = List.init 3 (fun _ -> Sct.spawn worker) in
      List.iter Sct.join ts)

let test_cond_signal_wakes_one () =
  (* one signal wakes exactly one of two waiters; a second signal is needed
     for the other — checked by requiring both to finish with two signals *)
  verify (fun () ->
      let m = Sct.Mutex.create () in
      let c = Sct.Cond.create () in
      let tickets = Sct.Var.make ~name:"tickets" 0 in
      let waiter () =
        Sct.Mutex.lock m;
        while Sct.Var.read tickets = 0 do
          Sct.Cond.wait c m
        done;
        Sct.Var.write tickets (Sct.Var.read tickets - 1);
        Sct.Mutex.unlock m
      in
      let t1 = Sct.spawn waiter in
      let t2 = Sct.spawn waiter in
      for _ = 1 to 2 do
        Sct.Mutex.lock m;
        Sct.Var.write tickets (Sct.Var.read tickets + 1);
        Sct.Cond.signal c;
        Sct.Mutex.unlock m
      done;
      Sct.join t1;
      Sct.join t2)

let test_join_many () =
  verify (fun () ->
      let n = Sct.Atomic.make ~name:"jm" 0 in
      let ts = List.init 4 (fun _ -> Sct.spawn (fun () -> Sct.Atomic.incr n)) in
      List.iter Sct.join ts;
      Sct.check (Sct.Atomic.load n = 4) "all joined")

let test_self_join_deadlocks () =
  let r =
    Runtime.exec ~promote:promote_all
      ~scheduler:(fun ctx -> List.hd ctx.Runtime.c_enabled)
      (fun () -> Sct.join (Sct.self ()))
  in
  match r.Runtime.r_outcome with
  | Outcome.Bug { bug = Outcome.Deadlock _; _ } -> ()
  | o -> Alcotest.failf "expected deadlock, got %a" Outcome.pp o

let suites =
  [
    ( "runtime-edge",
      [
        Alcotest.test_case "cyclic barrier reuse" `Quick test_barrier_reuse;
        Alcotest.test_case "three-party barrier" `Quick
          test_barrier_three_parties;
        Alcotest.test_case "rwlock: readers share" `Quick
          test_rwlock_readers_share;
        Alcotest.test_case "rwlock: writer excludes" `Quick
          test_rwlock_writer_excludes;
        Alcotest.test_case "atomic cas/xchg/faa semantics" `Quick
          test_atomic_cas_semantics;
        Alcotest.test_case "atomic increments never lost" `Quick
          test_atomic_increments_never_lost;
        Alcotest.test_case "plain increments can be lost" `Quick
          test_plain_increments_can_be_lost;
        Alcotest.test_case "semaphore admits at most its count" `Quick
          test_semaphore_counting;
        Alcotest.test_case "signal wakes exactly one waiter" `Quick
          test_cond_signal_wakes_one;
        Alcotest.test_case "join many" `Quick test_join_many;
        Alcotest.test_case "self-join deadlocks" `Quick
          test_self_join_deadlocks;
      ] );
  ]
