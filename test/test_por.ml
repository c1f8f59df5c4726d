(* Partial-order reduction: soundness (same bug verdicts as plain DFS) and
   effectiveness (fewer schedules) on hand-built and random programs. *)

open Sct_core

let promote_all _ = true
let cap = 30_000

let dfs program =
  Sct_explore.Dfs.explore ~promote:promote_all ~bound:Sct_explore.Dfs.Unbounded
    ~limit:cap program

let por mode program =
  Sct_explore.Por.explore ~promote:promote_all ~mode ~limit:cap program

(* Two fully independent threads: n yields each. Plain DFS explores
   C(2n, n) interleavings; sleep sets collapse them to a single one. *)
let independent n () =
  let t =
    Sct.spawn (fun () ->
        for _ = 1 to n do
          Sct.yield ()
        done)
  in
  for _ = 1 to n do
    Sct.yield ()
  done;
  Sct.join t

let test_sleep_collapses_independence () =
  let d = dfs (independent 4) in
  Alcotest.(check int) "plain DFS: C(8,4)" 70 d.Sct_explore.Dfs.counted;
  let s = por Sct_explore.Por.Sleep (independent 4) in
  Alcotest.(check bool) "complete" true s.Sct_explore.Stats.complete;
  Alcotest.(check int) "sleep sets: one schedule" 1 s.Sct_explore.Stats.total

let test_dpor_collapses_independence () =
  let s = por Sct_explore.Por.Dpor_sleep (independent 4) in
  Alcotest.(check int) "dpor+sleep: one schedule" 1 s.Sct_explore.Stats.total

(* Dependent operations must still be permuted: two racing writers and an
   asserting reader — every POR mode must find the bug. *)
let racy_program () =
  let x = Sct.Var.make ~name:"por_x" 0 in
  let t1 = Sct.spawn (fun () -> Sct.Var.write x 1) in
  let t2 = Sct.spawn (fun () -> Sct.Var.write x 2) in
  Sct.join t1;
  Sct.join t2;
  Sct.check (Sct.Var.read x = 2) "last write must win"

let test_por_finds_bugs () =
  List.iter
    (fun mode ->
      let r = por mode racy_program in
      Alcotest.(check bool) "bug found" true
        (r.Sct_explore.Stats.to_first_bug <> None))
    Sct_explore.Por.[ Sleep; Dpor; Dpor_sleep ]

let test_por_on_figure1 () =
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
  in
  let d = dfs figure1 in
  List.iter
    (fun mode ->
      let r = por mode figure1 in
      Alcotest.(check bool) "bug found" true
        (r.Sct_explore.Stats.to_first_bug <> None);
      Alcotest.(check bool) "no more schedules than DFS" true
        (r.Sct_explore.Stats.total <= d.Sct_explore.Dfs.counted))
    Sct_explore.Por.[ Sleep; Dpor; Dpor_sleep ]

(* Locked increments: the final state is schedule-independent, so POR may
   reduce heavily, but completeness (no bug) must be preserved. *)
let locked_counters () =
  let m = Sct.Mutex.create () in
  let c = Sct.Var.make ~name:"por_c" 0 in
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

(* Lock-handover reordering: the twostage defect, whose only reachable
   backtrack points sit at lock acquisitions (the racing thread is blocked
   at the inner frames). A regression test for the access-history form of
   the DPOR race analysis. *)
let twostage () =
  let ma = Sct.Mutex.create () in
  let mb = Sct.Mutex.create () in
  let data1 = Sct.Var.make ~name:"ts_data1" 0 in
  let data2 = Sct.Var.make ~name:"ts_data2" 0 in
  let writer =
    Sct.spawn (fun () ->
        Sct.Mutex.lock ma;
        Sct.Var.write data1 1;
        Sct.Mutex.unlock ma;
        Sct.Mutex.lock mb;
        Sct.Var.write data2 (Sct.Var.read data1 + 1);
        Sct.Mutex.unlock mb)
  in
  let reader =
    Sct.spawn (fun () ->
        Sct.Mutex.lock ma;
        let t = Sct.Var.read data1 in
        Sct.Mutex.unlock ma;
        if t <> 0 then begin
          Sct.Mutex.lock mb;
          let u = Sct.Var.read data2 in
          Sct.Mutex.unlock mb;
          Sct.check (u = t + 1) "second stage lagging"
        end)
  in
  Sct.join writer;
  Sct.join reader

let test_por_lock_handover () =
  let d = dfs twostage in
  Alcotest.(check bool) "DFS finds it" true
    (d.Sct_explore.Dfs.to_first_bug <> None);
  List.iter
    (fun mode ->
      let r = por mode twostage in
      Alcotest.(check bool) "POR finds the handover bug" true
        (r.Sct_explore.Stats.to_first_bug <> None);
      Alcotest.(check bool) "with fewer schedules" true
        (r.Sct_explore.Stats.total <= d.Sct_explore.Dfs.counted))
    Sct_explore.Por.[ Sleep; Dpor; Dpor_sleep ]

let test_por_deadlock_found () =
  (* the ABBA deadlock must survive the reduction in every mode *)
  let program () =
    let a = Sct.Mutex.create () in
    let b = Sct.Mutex.create () in
    let t1 =
      Sct.spawn (fun () ->
          Sct.Mutex.lock a;
          Sct.Mutex.lock b;
          Sct.Mutex.unlock b;
          Sct.Mutex.unlock a)
    in
    let t2 =
      Sct.spawn (fun () ->
          Sct.Mutex.lock b;
          Sct.Mutex.lock a;
          Sct.Mutex.unlock a;
          Sct.Mutex.unlock b)
    in
    Sct.join t1;
    Sct.join t2
  in
  List.iter
    (fun mode ->
      let r = por mode program in
      match r.Sct_explore.Stats.first_bug with
      | Some { Sct_explore.Stats.w_bug = Outcome.Deadlock _; _ } -> ()
      | _ -> Alcotest.failf "deadlock missed by POR")
    Sct_explore.Por.[ Sleep; Dpor; Dpor_sleep ]

let test_por_correct_program () =
  List.iter
    (fun mode ->
      let r = por mode locked_counters in
      Alcotest.(check bool) "complete" true r.Sct_explore.Stats.complete;
      Alcotest.(check int) "no bug" 0 r.Sct_explore.Stats.buggy)
    Sct_explore.Por.[ Sleep; Dpor; Dpor_sleep ]

(* Soundness over the random program family: POR agrees with plain DFS on
   bug existence, and never explores more terminal schedules. *)
let prop_por_sound =
  QCheck2.Test.make ~name:"POR preserves bug verdicts, reduces schedules"
    ~count:30 ~print:Test_programs_qcheck.print_program
    Test_programs_qcheck.gen_program_gen (fun gp ->
      let program = Test_programs_qcheck.build gp in
      let d = dfs program in
      QCheck2.assume d.Sct_explore.Dfs.complete;
      List.for_all
        (fun mode ->
          let r = por mode program in
          r.Sct_explore.Stats.complete
          && r.Sct_explore.Stats.total <= d.Sct_explore.Dfs.counted
          && r.Sct_explore.Stats.buggy = 0 (* family is bug-free *)
          && d.Sct_explore.Dfs.buggy = 0)
        Sct_explore.Por.[ Sleep; Dpor; Dpor_sleep ])

(* A buggy random-family variant: append an assertion-carrying reader
   thread; POR must find the bug whenever DFS does. *)
let prop_por_finds_what_dfs_finds =
  QCheck2.Test.make ~name:"POR finds every bug DFS finds" ~count:30
    ~print:Test_programs_qcheck.print_program
    Test_programs_qcheck.gen_program_gen (fun gp ->
      let program () =
        let flag = Sct.Var.make ~name:"pb_flag" 0 in
        let checker =
          Sct.spawn (fun () ->
              let a = Sct.Var.read flag in
              let b = Sct.Var.read flag in
              Sct.check (a = b) "torn flag")
        in
        let writer =
          Sct.spawn (fun () ->
              Sct.Var.write flag 1;
              Sct.Var.write flag 2)
        in
        Test_programs_qcheck.build gp ();
        Sct.join checker;
        Sct.join writer
      in
      let d = dfs program in
      QCheck2.assume d.Sct_explore.Dfs.complete;
      List.for_all
        (fun mode ->
          let r = por mode program in
          (r.Sct_explore.Stats.to_first_bug <> None)
          = (d.Sct_explore.Dfs.to_first_bug <> None))
        Sct_explore.Por.[ Sleep; Dpor; Dpor_sleep ])

(* --- the --por mode flag ------------------------------------------------ *)

let test_parse_mode () =
  List.iter
    (fun (s, m) ->
      match Sct_explore.Por.parse_mode s with
      | Ok m' when m' = m -> ()
      | Ok _ -> Alcotest.failf "%s parsed to the wrong mode" s
      | Error e -> Alcotest.failf "%s rejected: %s" s e)
    Sct_explore.Por.
      [
        ("sleep", Sleep);
        ("dpor", Dpor);
        ("dpor+sleep", Dpor_sleep);
        ("both", Dpor_sleep);
        ("DPOR", Dpor);
      ];
  match Sct_explore.Por.parse_mode "bogus" with
  | Ok _ -> Alcotest.fail "bogus mode accepted"
  | Error e ->
      List.iter
        (fun m ->
          Alcotest.(check bool)
            (Printf.sprintf "error lists %s" m)
            true
            (Astring_contains.contains e m))
        Sct_explore.Por.valid_mode_names

(* --- which techniques --por and --prefix-batch reach ---------------------- *)

(* The reduction and the batched step counter exist for bounds with no filter
   and no footprint axis only: on a benchmark with commuting steps,
   [--por dpor+sleep] changes the statistics of exactly DFS, IPB and IDB,
   [--prefix-batch] changes exactly their step counters, and every other
   technique ignores both options. *)
let test_por_reaches_tree_walkers () =
  let program =
    (Option.get (Sctbench.Registry.by_name "CS.reorder_3_bad"))
      .Sctbench.Bench.program
  in
  let o =
    { Sct_explore.Techniques.default_options with
      Sct_explore.Techniques.limit = 200 }
  in
  let promote =
    Sct_race.Promotion.promote (Sct_explore.Techniques.detect_races o program)
  in
  List.iter
    (fun t ->
      let run o = Sct_explore.Techniques.run ~promote o t program in
      let name = Sct_explore.Techniques.name t in
      let tree = List.mem t Sct_explore.Techniques.[ DFS; IPB; IDB ] in
      let plain = run o in
      let reduced =
        run
          { o with
            Sct_explore.Techniques.por = Some Sct_explore.Por.Dpor_sleep }
      in
      Alcotest.(check bool)
        (name ^ ": --por changes the statistics")
        tree
        (not (Sct_explore.Stats.equal plain reduced));
      let batched =
        run { o with Sct_explore.Techniques.prefix_batch = true }
      in
      Alcotest.(check bool)
        (name ^ ": --prefix-batch saves steps")
        tree
        (batched.Sct_explore.Stats.steps_saved > 0);
      Alcotest.(check bool)
        (name ^ ": --prefix-batch changes the statistics")
        tree
        (not (Sct_explore.Stats.equal plain batched));
      Alcotest.(check bool)
        (name ^ ": --prefix-batch changes only the step counters")
        true
        (Sct_explore.Stats.equal plain
           {
             batched with
             Sct_explore.Stats.steps_executed =
               plain.Sct_explore.Stats.steps_executed;
             steps_saved = plain.Sct_explore.Stats.steps_saved;
           });
      (* the bounds the session keeps plain, the reduced runner refuses *)
      match Sct_explore.Techniques.bounds o t with
      | Some b when not tree ->
          Alcotest.(check bool)
            (name ^ ": the reduced runner refuses its bounds")
            true
            (match
               Sct_explore.Driver.explore ~promote ~limit:1
                 (Sct_explore.Bounded.strategy ~por:Sct_explore.Por.Dpor b)
                 program
             with
            | _ -> false
            | exception Invalid_argument _ -> true)
      | Some _ | None -> ())
    Sct_explore.Techniques.all

(* --- BPOR: the bounded walks against the plain bounded walks ------------ *)

(* At every bound level the reduced walk explores a subset of the plain
   bounded tree, so on exhausted spaces it must agree on bug-freedom while
   counting no more schedules (the oracle's law, pinned here on the
   hand-built programs whose shape we know). *)
let test_bpor_bound_equivalence () =
  List.iter
    (fun program ->
      List.iter
        (fun bound ->
          let plain =
            Sct_explore.Dfs.explore ~promote:promote_all ~bound ~limit:cap
              program
          in
          List.iter
            (fun mode ->
              let r =
                Sct_explore.Por.explore ~promote:promote_all ~bound ~mode
                  ~limit:cap program
              in
              Alcotest.(check bool) "no more schedules than plain" true
                (r.Sct_explore.Stats.total <= plain.Sct_explore.Dfs.counted);
              if
                plain.Sct_explore.Dfs.complete
                && not plain.Sct_explore.Dfs.hit_limit
              then begin
                Alcotest.(check bool) "complete" true
                  r.Sct_explore.Stats.complete;
                Alcotest.(check bool) "bug-freedom agreement" true
                  (r.Sct_explore.Stats.buggy > 0
                  = (plain.Sct_explore.Dfs.buggy > 0))
              end)
            Sct_explore.Por.[ Sleep; Dpor; Dpor_sleep ])
        Sct_explore.Dfs.
          [ Preemption 0; Preemption 1; Preemption 2; Delay 1; Delay 2 ])
    [ racy_program; twostage; locked_counters ]

(* The campaign-level law over the random bug-free family: every terminal
   HB-signature of the POR-composed IPB/IDB campaign is a signature of the
   plain campaign at the same bound (the reduced walk explores a subset of
   the bounded tree), and both campaigns complete together. Signatures
   rather than schedule sets: the walks may count equivalent schedules in
   different orders across levels. *)
let signatures_of strategy program =
  let sigs = ref [] in
  let s =
    Sct_explore.Driver.explore ~promote:promote_all ~record_decisions:true
      ~limit:cap
      ~on_schedule:(fun r ->
        sigs :=
          Sct_explore.Hb_signature.(
            to_string (of_decisions r.Runtime.r_decisions))
          :: !sigs)
      strategy program
  in
  (s, List.sort_uniq String.compare !sigs)

let prop_bpor_signature_subset =
  QCheck2.Test.make
    ~name:"BPOR campaign signatures are a subset of the plain campaign's"
    ~count:20 ~print:Test_programs_qcheck.print_program
    Test_programs_qcheck.gen_program_gen (fun gp ->
      let program = Test_programs_qcheck.build gp in
      List.for_all
        (fun axis ->
          let bounds =
            { Sct_explore.Bounded.name = "bounded"; axis = Some axis;
              fair = None; length = None }
          in
          let plain, plain_sigs =
            signatures_of (Sct_explore.Bounded.strategy bounds) program
          in
          QCheck2.assume
            (plain.Sct_explore.Stats.complete
            && not plain.Sct_explore.Stats.hit_limit);
          List.for_all
            (fun mode ->
              let bpor, bpor_sigs =
                signatures_of
                  (Sct_explore.Bounded.strategy ~por:mode bounds)
                  program
              in
              bpor.Sct_explore.Stats.complete
              && List.for_all
                   (fun s -> List.mem s plain_sigs)
                   bpor_sigs)
            Sct_explore.Por.[ Dpor; Dpor_sleep ])
        Sct_explore.Bounded.[ Preemptions; Delays ])

let suites =
  [
    ( "partial-order-reduction",
      [
        Alcotest.test_case "sleep sets collapse independent threads" `Quick
          test_sleep_collapses_independence;
        Alcotest.test_case "dpor collapses independent threads" `Quick
          test_dpor_collapses_independence;
        Alcotest.test_case "all modes find racing-writer bug" `Quick
          test_por_finds_bugs;
        Alcotest.test_case "all modes find the figure1 bug" `Quick
          test_por_on_figure1;
        Alcotest.test_case "lock-handover reordering found" `Quick
          test_por_lock_handover;
        Alcotest.test_case "deadlock survives the reduction" `Quick
          test_por_deadlock_found;
        Alcotest.test_case "correct program verified" `Quick
          test_por_correct_program;
        QCheck_alcotest.to_alcotest prop_por_sound;
        QCheck_alcotest.to_alcotest prop_por_finds_what_dfs_finds;
        Alcotest.test_case "--por mode names parse, errors list all modes"
          `Quick test_parse_mode;
        Alcotest.test_case "--por changes exactly DFS, IPB and IDB" `Quick
          test_por_reaches_tree_walkers;
        Alcotest.test_case "BPOR agrees with the plain bounded walks" `Quick
          test_bpor_bound_equivalence;
        QCheck_alcotest.to_alcotest prop_bpor_signature_subset;
      ] );
  ]
