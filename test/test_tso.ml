(* The TSO store-buffer extension: litmus tests explored exhaustively.

   For each litmus shape we enumerate every terminal schedule with plain
   unbounded DFS (everything promoted) and collect the set of observable
   outcomes, comparing the sequentially-consistent program against its
   store-buffered counterpart. *)

open Sct_core

let promote_all _ = true

module Outcomes = Set.Make (struct
  type t = int * int

  let compare = compare
end)

(* Exhaustively enumerate [mk ()]'s behaviours, collecting (r1, r2)
   outcomes via the result cell the program writes into. The TSO litmus
   programs carry flusher threads and semaphore traffic, so their plain
   schedule spaces are huge — DPOR+sleep covers every happens-before class
   with a few hundred executions (pruned partial executions never reach the
   recording line, so only completed behaviours are collected). *)
let collect mk =
  let outcomes = ref Outcomes.empty in
  let program () =
    let r = mk () in
    outcomes := Outcomes.add r !outcomes
  in
  let lr =
    Sct_explore.Por.explore ~promote:promote_all
      ~mode:Sct_explore.Por.Dpor_sleep ~limit:500_000 program
  in
  Alcotest.(check bool) "space exhausted" true lr.Sct_explore.Stats.complete;
  Alcotest.(check int) "no bugs" 0 lr.Sct_explore.Stats.buggy;
  !outcomes

(* --- SB (store buffering): the TSO-vs-SC separating litmus --- *)

let sb_sc () =
  let x = Sct.Var.make ~name:"sb_x" 0 and y = Sct.Var.make ~name:"sb_y" 0 in
  let r1 = ref (-1) and r2 = ref (-1) in
  let t1 =
    Sct.spawn (fun () ->
        Sct.Var.write x 1;
        r1 := Sct.Var.read y)
  in
  let t2 =
    Sct.spawn (fun () ->
        Sct.Var.write y 1;
        r2 := Sct.Var.read x)
  in
  Sct.join t1;
  Sct.join t2;
  (!r1, !r2)

let sb_tso ~fenced () =
  let ctx = Sct_tso.Tso.create () in
  let x = Sct_tso.Tso.Var.make ctx ~name:"sb_x" 0 in
  let y = Sct_tso.Tso.Var.make ctx ~name:"sb_y" 0 in
  let r1 = ref (-1) and r2 = ref (-1) in
  let _t1 =
    Sct_tso.Tso.thread ctx (fun () ->
        Sct_tso.Tso.Var.store x 1;
        if fenced then Sct_tso.Tso.fence ctx;
        r1 := Sct_tso.Tso.Var.load y)
  in
  let _t2 =
    Sct_tso.Tso.thread ctx (fun () ->
        Sct_tso.Tso.Var.store y 1;
        if fenced then Sct_tso.Tso.fence ctx;
        r2 := Sct_tso.Tso.Var.load x)
  in
  Sct_tso.Tso.finish ctx;
  (!r1, !r2)

let test_sb_sc_forbids_00 () =
  let outcomes = collect sb_sc in
  Alcotest.(check bool) "(0,0) forbidden under SC" false
    (Outcomes.mem (0, 0) outcomes);
  Alcotest.(check bool) "(1,1) observable" true (Outcomes.mem (1, 1) outcomes);
  Alcotest.(check bool) "(0,1) observable" true (Outcomes.mem (0, 1) outcomes);
  Alcotest.(check bool) "(1,0) observable" true (Outcomes.mem (1, 0) outcomes)

let test_sb_tso_allows_00 () =
  let outcomes = collect (sb_tso ~fenced:false) in
  Alcotest.(check bool) "(0,0) observable under TSO" true
    (Outcomes.mem (0, 0) outcomes);
  Alcotest.(check bool) "(1,1) still observable" true
    (Outcomes.mem (1, 1) outcomes)

let test_sb_tso_fence_restores_sc () =
  let outcomes = collect (sb_tso ~fenced:true) in
  Alcotest.(check bool) "(0,0) forbidden with mfence" false
    (Outcomes.mem (0, 0) outcomes)

(* --- store forwarding: a thread always sees its own latest store --- *)

let test_store_forwarding () =
  let forward () =
    let ctx = Sct_tso.Tso.create () in
    let x = Sct_tso.Tso.Var.make ctx ~name:"fw_x" 0 in
    let seen = ref (-1) in
    let _t =
      Sct_tso.Tso.thread ctx (fun () ->
          Sct_tso.Tso.Var.store x 1;
          Sct_tso.Tso.Var.store x 2;
          seen := Sct_tso.Tso.Var.load x)
    in
    Sct_tso.Tso.finish ctx;
    (!seen, 0)
  in
  let outcomes = collect forward in
  Alcotest.(check bool) "only the newest own store is seen" true
    (Outcomes.equal outcomes (Outcomes.singleton (2, 0)))

(* --- message passing (MP): TSO preserves it (no store-store or
   load-load reordering), unlike weaker models --- *)

let test_mp_preserved_under_tso () =
  let mp () =
    let ctx = Sct_tso.Tso.create () in
    let data = Sct_tso.Tso.Var.make ctx ~name:"mp_data" 0 in
    let flag = Sct_tso.Tso.Var.make ctx ~name:"mp_flag" 0 in
    let r = ref 1 in
    let _producer =
      Sct_tso.Tso.thread ctx (fun () ->
          Sct_tso.Tso.Var.store data 42;
          Sct_tso.Tso.Var.store flag 1)
    in
    let _consumer =
      Sct_tso.Tso.thread ctx (fun () ->
          if Sct_tso.Tso.Var.load flag = 1 then
            r := if Sct_tso.Tso.Var.load data = 42 then 1 else 0)
    in
    Sct_tso.Tso.finish ctx;
    (!r, 0)
  in
  let outcomes = collect mp in
  Alcotest.(check bool) "flag=1 implies data=42 (FIFO buffers)" false
    (Outcomes.mem (0, 0) outcomes)

(* --- memory is eventually consistent: after finish, all stores landed --- *)

let test_finish_drains () =
  let program () =
    let ctx = Sct_tso.Tso.create () in
    let x = Sct_tso.Tso.Var.make ctx ~name:"dr_x" 0 in
    let _t =
      Sct_tso.Tso.thread ctx (fun () -> Sct_tso.Tso.Var.store x 7)
    in
    Sct_tso.Tso.finish ctx;
    Sct.check (Sct_tso.Tso.Var.load x = 7) "store landed after finish"
  in
  let lr =
    Sct_explore.Dfs.explore ~promote:promote_all ~bound:Sct_explore.Dfs.Unbounded
      ~limit:100_000 program
  in
  Alcotest.(check bool) "complete" true lr.Sct_explore.Dfs.complete;
  Alcotest.(check int) "never stale" 0 lr.Sct_explore.Dfs.buggy

let suites =
  [
    ( "tso",
      [
        Alcotest.test_case "SB under SC forbids (0,0)" `Quick
          test_sb_sc_forbids_00;
        Alcotest.test_case "SB under TSO allows (0,0)" `Quick
          test_sb_tso_allows_00;
        Alcotest.test_case "mfence restores SC on SB" `Quick
          test_sb_tso_fence_restores_sc;
        Alcotest.test_case "store-to-load forwarding" `Quick
          test_store_forwarding;
        Alcotest.test_case "message passing preserved (FIFO)" `Quick
          test_mp_preserved_under_tso;
        Alcotest.test_case "finish drains all buffers" `Quick
          test_finish_drains;
      ] );
  ]
