(* The self-testing fuzz subsystem: generator determinism, compile smoke,
   a fixed-seed differential-oracle campaign, the shrinker, and — the
   harness's own oracle — a deliberately broken technique that must be
   caught and shrunk to a tiny counterexample. *)

open Sct_fuzz

let quick_cfg =
  {
    Oracle.limit = 300;
    max_steps = 3_000;
    race_runs = 3;
    prefix_batch = false;
    por = None;
    techniques = Sct_explore.Techniques.all;
  }

let contains ~needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec at i = i + n <= h && (String.sub haystack i n = needle || at (i + 1)) in
  n = 0 || at 0

(* --- generator ---------------------------------------------------------- *)

let test_gen_deterministic () =
  List.iter
    (fun seed ->
      let a = Gen.program ~seed and b = Gen.program ~seed in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d generates the same program twice" seed)
        true (Ast.equal a b))
    [ 0; 1; 7; 1234; 0xF00D ];
  let a = Gen.program ~seed:0 and b = Gen.program ~seed:1 in
  Alcotest.(check bool) "different seeds differ (spot check)" false
    (Ast.equal a b)

let test_derive_seed_stable () =
  Alcotest.(check int) "derived seed is a pure function"
    (Gen.derive_seed ~campaign_seed:3 ~index:14)
    (Gen.derive_seed ~campaign_seed:3 ~index:14);
  Alcotest.(check bool) "indices derive distinct seeds" false
    (Gen.derive_seed ~campaign_seed:3 ~index:0
    = Gen.derive_seed ~campaign_seed:3 ~index:1)

let test_compile_smoke () =
  (* every generated program must execute to a terminal state under the
     deterministic round-robin scheduler *)
  for seed = 0 to 24 do
    let program = Compile.program (Gen.program ~seed) in
    match
      Sct_explore.Replay.replay
        ~promote:(fun _ -> true)
        ~max_steps:3_000 ~strict:false
        ~schedule:Sct_core.Schedule.empty program
    with
    | Some _ -> ()
    | None -> Alcotest.failf "seed %d: round-robin replay failed" seed
  done

(* --- the fixed-seed differential campaign ------------------------------- *)

(* 200 programs, every technique of the study including the four bounding
   axes: the ISSUE-grade regression net for the axes' oracle laws
   (agreement, no-bug-lost, cut algebra). *)
let test_campaign_clean () =
  let s = Harness.run ~cfg:quick_cfg ~seed:0 ~count:200 () in
  Alcotest.(check int) "200 programs checked" 200 s.Harness.s_programs;
  (match s.Harness.s_counterexamples with
  | [] -> ()
  | cx :: _ ->
      Alcotest.failf "unexpected violation:@.%a" Harness.pp_counterexample cx);
  (* sharding the campaign by index changes nothing *)
  let r =
    List.init 15 (fun i -> Harness.one_program ~cfg:quick_cfg ~campaign_seed:0 i)
  in
  Alcotest.(check int) "indexed reports agree with the sequential run" 0
    (List.length (Harness.summarize r).Harness.s_counterexamples)

(* --- the oracle's execution count --------------------------------------- *)

(* A program that counts its own invocations: one per execution. *)
let counting program =
  let calls = ref 0 in
  ( (fun () ->
      incr calls;
      program ()),
    calls )

(* The oracle's run of one program, with the main campaigns it produced. *)
let check_counted cfg ~seed program =
  let counted, calls = counting program in
  let mains = ref [] in
  let wrap base t =
    let s = base t in
    mains := (t, s) :: !mains;
    s
  in
  let violations = Oracle.check ~wrap cfg ~seed counted in
  (match violations with
  | [] -> ()
  | v :: _ -> Alcotest.failf "unexpected violation: %a" Oracle.pp_violation v);
  (!calls, List.rev !mains)

(* What a main campaign costs: its executions, plus one witness replay. *)
let main_cost (_, (s : Sct_explore.Stats.t)) =
  s.Sct_explore.Stats.executions
  + if s.Sct_explore.Stats.first_bug = None then 0 else 1

(* The execution-count law: the oracle invokes the program once per
   race-detection run, per main-campaign execution and per witness
   replay, plus what its cross-checks run afresh, and nothing for the
   reference campaigns at the sub-budget [m]: those come off the main
   campaigns' sessions. For a seed-sharded technique the fresh runs are
   the two half-range shards of shard-merge, [m] executions together, and
   for PCT and SURW two uncounted round-robin probes (the main campaign's
   and the sharding collector's). At limit 120 the sub-budget is the whole
   budget. With IPB and Fair, only Fair at an unreachable bound and the
   POR-composed IPB cross-check (plain and reduced) run afresh. *)
let test_oracle_execution_count () =
  let open Sct_explore in
  let promote_all _ = true in
  let sharded probes ~promote:_ (o_sub : Techniques.options) _ =
    o_sub.Techniques.limit + probes
  in
  let ipb_fair ~promote o_sub program =
    let executions ~promote o t =
      (Techniques.run ~promote o t program).Stats.executions
    in
    executions ~promote
      { o_sub with Techniques.fair_bound = max_int }
      Techniques.Fair
    + executions ~promote:promote_all o_sub Techniques.IPB
    + executions ~promote:promote_all
        { o_sub with Techniques.por = Some Por.Dpor_sleep }
        Techniques.IPB
  in
  let cases =
    List.concat_map
      (fun limit ->
        Techniques.
          [
            ([ Rand ], limit, sharded 0);
            ([ PCT ], limit, sharded 2);
            ([ SURW ], limit, sharded 2);
          ])
      [ 500; 120 ]
    @ [ (Techniques.[ IPB; Fair ], 500, ipb_fair) ]
  in
  List.iter
    (fun index ->
      let seed = Gen.derive_seed ~campaign_seed:0 ~index in
      let program = Compile.program (Gen.program ~seed) in
      List.iter
        (fun (techniques, limit, fresh) ->
          let cfg = { Oracle.default_config with limit; techniques } in
          let calls, mains = check_counted cfg ~seed program in
          let o =
            {
              Techniques.default_options with
              Techniques.limit;
              seed;
              max_steps = cfg.Oracle.max_steps;
              race_runs = cfg.Oracle.race_runs;
            }
          in
          let detection = Techniques.detect_races o program in
          let expected =
            detection.Sct_race.Promotion.runs
            + List.fold_left (fun acc c -> acc + main_cost c) 0 mains
            + fresh
                ~promote:(Sct_race.Promotion.promote detection)
                { o with Techniques.limit = min limit 200 }
                program
          in
          Alcotest.(check int)
            (Printf.sprintf "program %d, %s at limit %d" index
               (String.concat "+" (List.map Techniques.name techniques))
               limit)
            expected calls)
        cases)
    [ 0; 1; 2 ]

(* --- the shrinker ------------------------------------------------------- *)

let has_incr p =
  let rec stmt = function
    | Ast.Incr _ -> true
    | Ast.Lock { body; _ } | Ast.Try_lock { body; _ } | Ast.Loop { body; _ }
      ->
        List.exists stmt body
    | Ast.If_eq { then_; else_; _ } ->
        List.exists stmt then_ || List.exists stmt else_
    | _ -> false
  in
  List.exists (List.exists stmt) p.Ast.threads

let test_shrink_minimal () =
  let p =
    {
      Ast.threads =
        [
          [
            Ast.Lock
              { m = 0; body = [ Ast.Yield; Ast.Incr { var = 0 }; Ast.Yield ] };
            Ast.Barrier_wait;
          ];
          [ Ast.Loop { times = 3; body = [ Ast.Sem_wait ] } ];
        ];
    }
  in
  let shrunk = Shrink.shrink ~check:has_incr p in
  Alcotest.(check bool) "shrunk program still has the Incr" true
    (has_incr shrunk);
  Alcotest.(check int) "shrunk to the single relevant statement" 1
    (Ast.size shrunk);
  (* deterministic: shrinking again yields the same program *)
  let again = Shrink.shrink ~check:has_incr p in
  Alcotest.(check bool) "shrinking is deterministic" true
    (Ast.equal shrunk again);
  Alcotest.check_raises "shrink refuses a passing program"
    (Invalid_argument "Sct_fuzz.Shrink.shrink: program does not fail")
    (fun () -> ignore (Shrink.shrink ~check:(fun _ -> false) p))

let test_candidates_decrease () =
  for seed = 0 to 19 do
    let p = Gen.program ~seed in
    List.iter
      (fun c ->
        if Ast.size c > Ast.size p then
          Alcotest.failf "seed %d: candidate grew from %d to %d nodes" seed
            (Ast.size p) (Ast.size c);
        if Ast.equal c p then
          Alcotest.failf "seed %d: candidate equals its parent" seed)
      (Shrink.candidates p)
  done

(* --- fault injection: the harness must catch a broken technique --------- *)

(* An "IPB" that silently drops every bug it finds: breaks the paper's
   DFS ⊆ IPB inclusion on any exhaustible buggy program. *)
let strip_ipb_bugs (base : Oracle.runner) : Oracle.runner =
 fun t ->
  let s = base t in
  match t with
  | Sct_explore.Techniques.IPB ->
      {
        s with
        Sct_explore.Stats.first_bug = None;
        to_first_bug = None;
        buggy = 0;
      }
  | _ -> s

(* shared between the two tests below: the campaign is the expensive part *)
let injected_summary =
  lazy (Harness.run ~wrap:strip_ipb_bugs ~cfg:quick_cfg ~seed:0 ~count:12 ())

let test_injected_fault_caught () =
  let s = Lazy.force injected_summary in
  let cxs = s.Harness.s_counterexamples in
  Alcotest.(check bool) "the broken IPB is caught" true (cxs <> []);
  List.iter
    (fun cx ->
      Alcotest.(check bool)
        (Printf.sprintf "program %d: shrunk to <= 10 nodes (got %d)"
           cx.Harness.cx_index
           (Ast.size cx.Harness.cx_shrunk))
        true
        (Ast.size cx.Harness.cx_shrunk <= 10);
      Alcotest.(check bool) "shrunk counterexample still violates" true
        (cx.Harness.cx_violations <> []);
      Alcotest.(check bool) "the violated invariant is the inclusion" true
        (List.exists
           (fun v -> v.Oracle.v_invariant = "inclusion")
           cx.Harness.cx_violations))
    cxs

let test_dump_artifact () =
  let s = Lazy.force injected_summary in
  match s.Harness.s_counterexamples with
  | [] -> Alcotest.fail "expected a counterexample to dump"
  | cx :: _ ->
      let dir = Filename.temp_file "sct_fuzz" "" in
      Sys.remove dir;
      let path = Harness.dump ~dir cx in
      let content = In_channel.with_open_bin path In_channel.input_all in
      Alcotest.(check bool) "artifact records the format header" true
        (contains ~needle:"sct-fuzz counterexample v1" content);
      Alcotest.(check bool) "artifact records the seed" true
        (contains
           ~needle:(Printf.sprintf "program seed:  %d" cx.Harness.cx_seed)
           content);
      Alcotest.(check bool) "artifact records the invariant" true
        (contains ~needle:"inclusion" content);
      (* idempotent: a second dump leaves the file untouched *)
      let again = Harness.dump ~dir cx in
      Alcotest.(check string) "same path" path again

let suites =
  [
    ( "fuzz",
      [
        Alcotest.test_case "generator is deterministic" `Quick
          test_gen_deterministic;
        Alcotest.test_case "per-program seeds are stable" `Quick
          test_derive_seed_stable;
        Alcotest.test_case "generated programs compile and run" `Quick
          test_compile_smoke;
        Alcotest.test_case "shrinker reaches the minimal program" `Quick
          test_shrink_minimal;
        Alcotest.test_case "shrink candidates never grow" `Quick
          test_candidates_decrease;
        Alcotest.test_case "oracle execution count: references are free"
          `Quick test_oracle_execution_count;
        Alcotest.test_case "fixed-seed campaign: no violations" `Slow
          test_campaign_clean;
        Alcotest.test_case "injected inclusion-breaking IPB is caught" `Slow
          test_injected_fault_caught;
        Alcotest.test_case "counterexamples dump as replayable artifacts"
          `Slow test_dump_artifact;
      ] );
  ]
