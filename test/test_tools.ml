(* The auxiliary tooling: schedule replay, counterexample simplification and
   coverage guarantees. *)

open Sct_core

let promote_all _ = true

(* an iterative-bounding campaign, as the study runs it *)
let bounded technique ~limit program =
  Sct_explore.Techniques.(
    run ~promote:promote_all { default_options with limit } technique program)

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

(* --- replay --- *)

let test_replay_reproduces_bug () =
  (* find a witness with IDB, then replay it byte-for-byte *)
  let idb = bounded Sct_explore.Techniques.IDB ~limit:10_000 figure1 in
  match idb.Sct_explore.Stats.first_bug with
  | None -> Alcotest.fail "no witness"
  | Some w -> (
      match
        Sct_explore.Replay.replay ~promote:promote_all
          ~schedule:w.Sct_explore.Stats.w_schedule figure1
      with
      | None -> Alcotest.fail "witness schedule infeasible"
      | Some r ->
          Alcotest.(check bool) "still buggy" true
            (Outcome.is_buggy r.Runtime.r_outcome);
          Alcotest.(check bool) "same schedule" true
            (Schedule.equal r.Runtime.r_schedule w.Sct_explore.Stats.w_schedule))

let test_replay_detects_infeasible () =
  (* thread 7 never exists *)
  let sched = Schedule.of_list [ 0; 7; 0 ] in
  Alcotest.(check bool) "infeasible" true
    (Sct_explore.Replay.replay ~promote:promote_all ~schedule:sched figure1
    = None)

let test_replay_fallback () =
  (* non-strict replay completes with round-robin fallback *)
  let sched = Schedule.of_list [ 0 ] in
  match
    Sct_explore.Replay.replay ~promote:promote_all ~strict:false
      ~schedule:sched figure1
  with
  | Some r ->
      Alcotest.(check bool) "terminated" true
        (r.Runtime.r_outcome <> Outcome.Step_limit)
  | None -> Alcotest.fail "fallback replay failed"

let test_parse () =
  Alcotest.(check (list int)) "parse" [ 0; 0; 1; 2 ]
    (Schedule.to_list (Sct_explore.Replay.parse "0, 0,1,2"));
  Alcotest.(check (list int)) "surrounding whitespace" [ 3; 1 ]
    (Schedule.to_list (Sct_explore.Replay.parse "  3 ,\t1 "));
  Alcotest.(check (list int)) "blank input is the empty schedule" []
    (Schedule.to_list (Sct_explore.Replay.parse "   "));
  Alcotest.check_raises "bad id names token and offset"
    (Failure {|Replay.parse: bad thread id "x" at offset 2|}) (fun () ->
      ignore (Sct_explore.Replay.parse "0,x"));
  Alcotest.check_raises "whitespace skipped when locating the token"
    (Failure {|Replay.parse: bad thread id "-1" at offset 3|}) (fun () ->
      ignore (Sct_explore.Replay.parse "0, -1"));
  Alcotest.check_raises "empty token"
    (Failure "Replay.parse: empty thread id at offset 2") (fun () ->
      ignore (Sct_explore.Replay.parse "0,,1"));
  (* thread ids are decimal digits only: no base prefixes, signs or
     underscores *)
  List.iter
    (fun (input, tok, pos) ->
      Alcotest.check_raises ("not decimal: " ^ String.escaped input)
        (Failure
           (Printf.sprintf "Replay.parse: bad thread id %S at offset %d" tok
              pos))
        (fun () -> ignore (Sct_explore.Replay.parse input)))
    [
      ("0x1,1_0", "0x1", 0);
      ("1,1_0", "1_0", 2);
      ("+2", "+2", 0);
      ("0b11", "0b11", 0);
      ("3, 0o7", "0o7", 3);
      ("99999999999999999999", "99999999999999999999", 0);
    ];
  Alcotest.(check (list int)) "max_int is a thread id" [ max_int ]
    (Schedule.to_list (Sct_explore.Replay.parse (string_of_int max_int)));
  (* the offset skips every byte [String.trim] strips, not only blanks *)
  Alcotest.check_raises "newline before the token"
    (Failure {|Replay.parse: bad thread id "x" at offset 2|}) (fun () ->
      ignore (Sct_explore.Replay.parse "\n x"));
  Alcotest.check_raises "carriage return and form feed before the token"
    (Failure {|Replay.parse: bad thread id "y" at offset 4|}) (fun () ->
      ignore (Sct_explore.Replay.parse "1,\r\012y"));
  Alcotest.(check (list int)) "all trimmed bytes around ids" [ 5; 6 ]
    (Schedule.to_list (Sct_explore.Replay.parse "\r\n\0125\t,\n6\r"))

let test_parse_edges () =
  Alcotest.(check (list int)) "trailing whitespace tolerated" [ 0; 1 ]
    (Schedule.to_list (Sct_explore.Replay.parse "0,1 \t "));
  Alcotest.(check (list int)) "empty input" []
    (Schedule.to_list (Sct_explore.Replay.parse ""));
  Alcotest.check_raises "trailing garbage names its exact offset"
    (Failure {|Replay.parse: bad thread id "junk" at offset 4|}) (fun () ->
      ignore (Sct_explore.Replay.parse "0,1,junk"));
  Alcotest.check_raises "trailing comma is an empty id, not whitespace"
    (Failure "Replay.parse: empty thread id at offset 4") (fun () ->
      ignore (Sct_explore.Replay.parse "0,1,"));
  Alcotest.check_raises "leading comma"
    (Failure "Replay.parse: empty thread id at offset 0") (fun () ->
      ignore (Sct_explore.Replay.parse ",0"));
  Alcotest.check_raises "inner whitespace does not split ids"
    (Failure {|Replay.parse: bad thread id "7 7" at offset 1|}) (fun () ->
      ignore (Sct_explore.Replay.parse " 7 7"))

(* Bytes that steer the schedule parser, plus any byte at all. *)
let gen_schedule_byte =
  QCheck2.Gen.(
    oneof
      [
        oneofl
          [
            '0'; '1'; '7'; '9'; ','; ' '; '\t'; '\n'; '\r'; '\012'; '-'; '+';
            'x'; 'b'; 'o'; '_';
          ];
        char;
      ])

let gen_mutated_schedule_line =
  QCheck2.Gen.(
    let* tids =
      list_size (int_bound 8)
        (oneof [ int_bound 6; oneofl [ 10; 123; max_int ] ])
    in
    let* ms =
      list_size (int_range 1 3)
        (let* k = nat in
         let* c = gen_schedule_byte in
         oneofl
           Test_store.[ Truncate k; Replace (k, c); Insert (k, c); Delete k ])
    in
    return
      (List.fold_left Test_store.mutate
         (Sct_store.Codec.schedule_line (Schedule.of_list tids))
         ms))

(* A [Failure] from parsing [s] names an offset in [s]: a bad id's offset
   is where the id itself starts, an empty id's is the comma or the end of
   input that closes it. *)
let failure_in_place s msg =
  let n = String.length s in
  let blank c = String.trim (String.make 1 c) = "" in
  match
    Scanf.sscanf_opt msg "Replay.parse: bad thread id %S at offset %d%!"
      (fun tok k -> (tok, k))
  with
  | Some (tok, k) ->
      k >= 0
      && k + String.length tok <= n
      && String.sub s k (String.length tok) = tok
      && not (blank s.[k])
  | None -> (
      match
        Scanf.sscanf_opt msg "Replay.parse: empty thread id at offset %d%!"
          Fun.id
      with
      | Some k -> k = n || (k >= 0 && k < n && s.[k] = ',')
      | None -> false)

(* Mutation law: start from rendered schedule lines ([Codec.schedule_line],
   the form every [.sched] artifact stores) and mutate bytes. Every input
   either parses to a schedule whose rendering parses back equal, or fails
   with [Failure] naming an offset in the input. Any other exception fails
   the law. The byte edits are [Test_store]'s. *)

let prop_parse_mutated =
  QCheck2.Test.make
    ~name:"Replay.parse: mutated schedule lines round-trip or fail in place"
    ~count:2000 ~print:String.escaped gen_mutated_schedule_line (fun s ->
      match Sct_explore.Replay.parse s with
      | sched ->
          Schedule.equal
            (Sct_explore.Replay.parse (Sct_store.Codec.schedule_line sched))
            sched
      | exception Failure msg -> failure_in_place s msg)

(* --- --technique list parsing --- *)

let technique =
  Alcotest.testable
    (fun ppf t -> Format.pp_print_string ppf (Sct_explore.Techniques.name t))
    ( = )

let parsed = Alcotest.(result (list technique) string)

let check_parse what specs expected =
  Alcotest.check parsed what expected
    (Sct_explore.Techniques.parse_list specs)

let valid_names_msg =
  "valid: ipb, idb, dfs, rand, pct, maple, surw, fair, length, ivb, itb"

let test_technique_list () =
  let open Sct_explore.Techniques in
  check_parse "no flag: the paper's five techniques" [] (Ok all_paper);
  check_parse "comma-separated" [ "dfs,rand" ] (Ok [ DFS; Rand ]);
  check_parse "repeated flags concatenate" [ "ipb"; "maple" ]
    (Ok [ IPB; Maple ]);
  check_parse "names are case-insensitive, aliases accepted"
    [ "DFS,Random,MapleAlg" ]
    (Ok [ DFS; Rand; Maple ]);
  check_parse "duplicates dedupe, first occurrence wins"
    [ "idb,ipb,idb"; "ipb,surw" ]
    (Ok [ IDB; IPB; SURW ]);
  check_parse "empty fragments (stray commas) are ignored" [ "ipb,,rand," ]
    (Ok [ IPB; Rand ]);
  check_parse "unknown name lists every valid name" [ "dfs,bogus" ]
    (Error ("unknown technique: bogus (" ^ valid_names_msg ^ ")"));
  check_parse "a flag that names nothing is an error" [ "," ]
    (Error ("no technique names given (" ^ valid_names_msg ^ ")"));
  check_parse "explicit empty string too" [ "" ]
    (Error ("no technique names given (" ^ valid_names_msg ^ ")"));
  Alcotest.check parsed "default override" (Ok [ DFS ])
    (Sct_explore.Techniques.parse_list ~default:[ DFS ] [])

(* --- simplification --- *)

let test_simplify_reduces_preemptions () =
  (* take a (likely messy) random witness and minimize it *)
  let rand =
    Sct_explore.Random_walk.explore ~promote:promote_all ~stop_on_bug:true
      ~seed:5 ~runs:10_000 figure1
  in
  match rand.Sct_explore.Stats.first_bug with
  | None -> Alcotest.fail "random scheduler found nothing"
  | Some w -> (
      match
        Sct_explore.Simplify.minimize ~promote:promote_all ~program:figure1
          w.Sct_explore.Stats.w_schedule
      with
      | None -> Alcotest.fail "witness did not replay"
      | Some m ->
          Alcotest.(check bool) "still buggy" true
            (Outcome.is_buggy
               m.Sct_explore.Simplify.result.Runtime.r_outcome);
          Alcotest.(check bool) "pc did not increase" true
            (m.Sct_explore.Simplify.result.Runtime.r_pc
            <= w.Sct_explore.Stats.w_pc);
          (* figure1's bug needs exactly one preemption: the minimizer must
             reach the optimum from any witness of this tiny program *)
          Alcotest.(check int) "minimal witness has one preemption" 1
            m.Sct_explore.Simplify.result.Runtime.r_pc)

let test_simplify_rejects_non_buggy () =
  let rr =
    Sct_explore.Replay.replay ~promote:promote_all ~strict:false
      ~schedule:(Schedule.of_list []) figure1
  in
  match rr with
  | None -> Alcotest.fail "round-robin replay failed"
  | Some r ->
      Alcotest.(check bool) "round-robin is safe" false
        (Outcome.is_buggy r.Runtime.r_outcome);
      Alcotest.(check bool) "minimize refuses non-buggy input" true
        (Sct_explore.Simplify.minimize ~promote:promote_all ~program:figure1
           r.Runtime.r_schedule
        = None)

(* --- guarantees --- *)

let test_guarantee_bounded () =
  (* a correct program explored to a complete level yields a bound *)
  let program () =
    let m = Sct.Mutex.create () in
    let c = Sct.Var.make ~name:"g_c" 0 in
    let body () =
      Sct.Mutex.lock m;
      Sct.Var.write c (Sct.Var.read c + 1);
      Sct.Mutex.unlock m
    in
    let t1 = Sct.spawn body in
    let t2 = Sct.spawn body in
    Sct.join t1;
    Sct.join t2
  in
  let s = bounded Sct_explore.Techniques.IDB ~limit:1_000_000 program in
  (match Sct_explore.Guarantee.of_stats s with
  | Sct_explore.Guarantee.Verified -> ()
  | g -> Alcotest.failf "expected Verified, got %s" (Sct_explore.Guarantee.to_string g));
  (* with a tiny limit the guarantee weakens to a bound or nothing *)
  let s' = bounded Sct_explore.Techniques.IPB ~limit:2 program in
  match Sct_explore.Guarantee.of_stats s' with
  | Sct_explore.Guarantee.Bounded { kind = `Preemptions; bound } ->
      Alcotest.(check bool) "bound >= 0" true (bound >= 0)
  | Sct_explore.Guarantee.None_ | Sct_explore.Guarantee.Verified -> ()
  | g -> Alcotest.failf "unexpected guarantee %s" (Sct_explore.Guarantee.to_string g)

let test_guarantee_falsified () =
  let s = bounded Sct_explore.Techniques.IDB ~limit:10_000 figure1 in
  match Sct_explore.Guarantee.of_stats s with
  | Sct_explore.Guarantee.Falsified { bound = Some 1 } -> ()
  | g -> Alcotest.failf "expected Falsified(1), got %s" (Sct_explore.Guarantee.to_string g)

(* MapleAlg marks its campaign complete once every candidate was
   attempted. On a buggy benchmark it misses, that is no proof of
   bug-freedom, so no guarantee may be claimed. *)
let test_guarantee_maple_heuristic () =
  let program =
    (Option.get (Sctbench.Registry.by_name "CS.reorder_10_bad"))
      .Sctbench.Bench.program
  in
  let o = Sct_explore.Techniques.default_options in
  let promote =
    Sct_race.Promotion.promote (Sct_explore.Techniques.detect_races o program)
  in
  let s =
    Sct_explore.Techniques.run ~promote o Sct_explore.Techniques.Maple program
  in
  Alcotest.(check bool) "MapleAlg misses the bug" false
    (Sct_explore.Stats.found s);
  Alcotest.(check bool) "MapleAlg reports complete" true
    s.Sct_explore.Stats.complete;
  match Sct_explore.Guarantee.of_stats s with
  | Sct_explore.Guarantee.None_ -> ()
  | g ->
      Alcotest.failf "expected no guarantee, got %s"
        (Sct_explore.Guarantee.to_string g)

let test_random_distinct_tracking () =
  let s =
    Sct_explore.Random_walk.explore ~promote:promote_all ~seed:0 ~runs:500
      figure1
  in
  match Sct_explore.Stats.distinct s with
  | None -> Alcotest.fail "distinct not tracked"
  | Some d ->
      Alcotest.(check bool) "some duplicates on a tiny program" true (d < 500);
      Alcotest.(check bool) "at least one distinct" true (d >= 1)

let suites =
  [
    ( "tools",
      [
        Alcotest.test_case "replay reproduces a witness" `Quick
          test_replay_reproduces_bug;
        Alcotest.test_case "replay detects infeasible schedules" `Quick
          test_replay_detects_infeasible;
        Alcotest.test_case "replay fallback" `Quick test_replay_fallback;
        Alcotest.test_case "schedule parsing" `Quick test_parse;
        Alcotest.test_case "schedule parsing: edge offsets" `Quick
          test_parse_edges;
        QCheck_alcotest.to_alcotest prop_parse_mutated;
        Alcotest.test_case "--technique list parsing" `Quick
          test_technique_list;
        Alcotest.test_case "simplification reaches the minimal witness"
          `Quick test_simplify_reduces_preemptions;
        Alcotest.test_case "simplification rejects non-buggy input" `Quick
          test_simplify_rejects_non_buggy;
        Alcotest.test_case "bounded coverage guarantees" `Quick
          test_guarantee_bounded;
        Alcotest.test_case "falsification guarantee" `Quick
          test_guarantee_falsified;
        Alcotest.test_case "MapleAlg completion is no guarantee" `Quick
          test_guarantee_maple_heuristic;
        Alcotest.test_case "random walk tracks distinct schedules" `Quick
          test_random_distinct_tracking;
      ] );
  ]
