(* End-to-end exit-code coverage of `sctbench_run artifacts replay`: the
   command promises to exit non-zero unless the recorded bug reproduces.
   The interesting cases are a witness that is feasible but no longer
   buggy (the program "got fixed" relative to the store) and a tampered
   artifact file, which must fail the digest check rather than replay
   corrupted data. *)

let bench_name = "CS.account_bad"

let options =
  {
    Sct_explore.Techniques.default_options with
    Sct_explore.Techniques.limit = 2_000;
    race_runs = 3;
    max_steps = 10_000;
  }

(* the CLI binary, located relative to the test executable (dune places
   both under _build/default) *)
let exe =
  lazy
    (List.find_opt Sys.file_exists
       [
         Filename.concat
           (Filename.dirname Sys.executable_name)
           (Filename.concat ".." (Filename.concat "bin" "sctbench_run.exe"));
         Filename.concat ".." (Filename.concat "bin" "sctbench_run.exe");
         Filename.concat "_build"
           (Filename.concat "default"
              (Filename.concat "bin" "sctbench_run.exe"));
       ])

let run_cli args =
  match Lazy.force exe with
  | None -> Alcotest.fail "sctbench_run.exe not found next to the test"
  | Some exe ->
      let out = Filename.temp_file "sct_cli" ".out" in
      let code =
        Sys.command
          (Printf.sprintf "%s %s > %s 2>&1" (Filename.quote exe) args
             (Filename.quote out))
      in
      let content = In_channel.with_open_bin out In_channel.input_all in
      Sys.remove out;
      (code, content)

let contains ~needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec at i = i + n <= h && (String.sub haystack i n = needle || at (i + 1)) in
  n = 0 || at 0

let fresh_store () =
  let dir = Filename.temp_file "sct_store" "" in
  Sys.remove dir;
  dir

let bench =
  lazy
    (match Sctbench.Registry.by_name bench_name with
    | Some b -> b
    | None -> Alcotest.fail ("missing benchmark " ^ bench_name))

let promote =
  lazy
    (let b = Lazy.force bench in
     Sct_race.Promotion.promote
       (Sct_explore.Techniques.detect_races options b.Sctbench.Bench.program))

(* a genuine IPB witness for the benchmark, found once and shared *)
let witness =
  lazy
    (let b = Lazy.force bench in
     let s =
       Sct_explore.Techniques.run ~promote:(Lazy.force promote) options
         Sct_explore.Techniques.IPB b.Sctbench.Bench.program
     in
     match s.Sct_explore.Stats.first_bug with
     | Some w -> (s.Sct_explore.Stats.bound, w)
     | None -> Alcotest.fail ("IPB found no bug in " ^ bench_name))

let save_artifact ~store w ~bound =
  let a =
    Sct_store.Artifact.make ~bench:bench_name ~technique:"IPB" ~options
      ~bound w
  in
  ignore
    (Sct_store.Artifact.save ~dir:(Filename.concat store "artifacts") a);
  a.Sct_store.Artifact.digest

let test_replay_reproduces () =
  let bound, w = Lazy.force witness in
  let store = fresh_store () in
  let digest = save_artifact ~store w ~bound in
  let code, out =
    run_cli (Printf.sprintf "artifacts replay --store %s %s"
               (Filename.quote store) digest)
  in
  if code <> 0 then Alcotest.failf "expected exit 0, got %d:\n%s" code out;
  Alcotest.(check bool) "prints the outcome" true
    (contains ~needle:"outcome:" out)

let test_replay_not_reproducing () =
  let bound, w = Lazy.force witness in
  (* a feasible but bug-free schedule for the same benchmark: whatever the
     deterministic round-robin fallback executes *)
  let b = Lazy.force bench in
  let safe_schedule =
    match
      Sct_explore.Replay.replay ~promote:(Lazy.force promote) ~strict:false
        ~schedule:Sct_core.Schedule.empty b.Sctbench.Bench.program
    with
    | None -> Alcotest.fail "round-robin replay failed"
    | Some r ->
        if Sct_core.Outcome.is_buggy r.Sct_core.Runtime.r_outcome then
          Alcotest.fail
            (bench_name ^ " is buggy under round-robin; pick another bench");
        r.Sct_core.Runtime.r_schedule
  in
  let store = fresh_store () in
  let digest =
    save_artifact ~store
      { w with Sct_explore.Stats.w_schedule = safe_schedule }
      ~bound
  in
  let code, out =
    run_cli (Printf.sprintf "artifacts replay --store %s %s"
               (Filename.quote store) digest)
  in
  Alcotest.(check int) "non-reproducing witness exits 1" 1 code;
  Alcotest.(check bool) "says the bug did not reproduce" true
    (contains ~needle:"did NOT reproduce" out)

let test_replay_tampered_file () =
  let bound, w = Lazy.force witness in
  let store = fresh_store () in
  let digest = save_artifact ~store w ~bound in
  let path =
    Filename.concat (Filename.concat store "artifacts") (digest ^ ".sched")
  in
  (* flip the schedule line: the content no longer matches the digest in
     the file name *)
  let lines =
    In_channel.with_open_bin path In_channel.input_all
    |> String.split_on_char '\n'
    |> List.map (fun l ->
           let t = String.trim l in
           if t <> "" && t.[0] <> '#' then "0," ^ t else l)
  in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (String.concat "\n" lines));
  let code, out =
    run_cli (Printf.sprintf "artifacts replay --store %s %s"
               (Filename.quote store) digest)
  in
  Alcotest.(check int) "tampered artifact exits 1" 1 code;
  Alcotest.(check bool) "the digest check names the artifact" true
    (contains ~needle:"Sct_store.Artifact" out)

let test_replay_missing_digest () =
  let store = fresh_store () in
  let code, out =
    run_cli (Printf.sprintf "artifacts replay --store %s 0123456789abcdef"
               (Filename.quote store))
  in
  Alcotest.(check int) "missing artifact exits 1" 1 code;
  Alcotest.(check bool) "says which digest is missing" true
    (contains ~needle:"no artifact" out)

(* Numeric and selection flags are checked where they are parsed: an
   out-of-range value, an unknown suite or an id that selects no benchmark
   is a command-line error (exit 124) naming the option, never an uncaught
   exception (exit 125), a bogus report, an empty table or a silent
   miscount. *)
let test_numeric_flags_checked () =
  let store = fresh_store () in
  List.iter
    (fun (args, option) ->
      let code, out = run_cli args in
      if code <> 124 then
        Alcotest.failf "%s: expected exit 124, got %d:\n%s" args code out;
      Alcotest.(check bool)
        (Printf.sprintf "%s: the message names %s" args option)
        true
        (contains ~needle:(Printf.sprintf "option '%s'" option) out))
    [
      ("fuzz --count=-2", "--count");
      ("corpus mine --count=-1", "--count");
      (Printf.sprintf "campaign run --suite cs --slice 0 --store %s"
         (Filename.quote store), "--slice");
      (Printf.sprintf "campaign run --suite cs --slice=-5 --store %s"
         (Filename.quote store), "--slice");
      ("fuzz --count 3 --limit=-3", "--limit");
      ("corpus mine --count 2 --limit=-5", "--limit");
      ("run CS.reorder_3_bad -t dfs --limit=-1", "--limit");
      ("run CS.reorder_3_bad -t dfs --jobs=-3", "--jobs");
      ("corpus mine --count 2 --shrink-checks=-1", "--shrink-checks");
      ("run CS.reorder_3_bad -t fair --fair-bound=-1", "--fair-bound");
      ("run CS.reorder_3_bad -t length --length-bound=-1", "--length-bound");
      ("fuzz --count 2 --max-steps 0", "--max-steps");
      ("table3 --suite nope", "--suite");
      ("table3 --suite cs --id=-1 --limit 10", "--id");
      ("table3 --suite parsec --id 0 --limit 10", "--id");
      (Printf.sprintf "campaign run --store %s --id 999" (Filename.quote store),
       "--id");
      ("run CS.reorder_3_bad -t dfs --time-limit=-1 --limit 100", "--time-limit");
      ("run CS.reorder_3_bad -t dfs --time-limit 0 --limit 100", "--time-limit");
      ("run CS.reorder_3_bad -t dfs --time-limit=nan --limit 100", "--time-limit");
      ("run CS.reorder_3_bad -t dfs --time-limit=inf --limit 100", "--time-limit");
    ];
  Alcotest.(check bool) "no store was created" false (Sys.file_exists store);
  let code, out = run_cli "fuzz --count 0" in
  if code <> 0 then Alcotest.failf "fuzz --count 0: exit %d:\n%s" code out;
  Alcotest.(check bool) "fuzz --count 0 checks nothing" true
    (contains ~needle:"fuzz: 0 programs" out);
  let code, out =
    run_cli "run CS.reorder_3_bad -t dfs --time-limit 0.5 --limit 100"
  in
  if code <> 0 then Alcotest.failf "--time-limit 0.5: exit %d:\n%s" code out;
  Alcotest.(check bool) "a positive time limit still runs" true
    (contains ~needle:"total=100" out)

(* Named flags are parsed once, where they are read: an unknown value is
   a command-line error (exit 124) that names the option and lists the
   valid values, never an ad-hoc message and exit 1; a flag that no
   longer exists is refused the same way. *)
let test_named_flags_checked () =
  let store = fresh_store () in
  List.iter
    (fun (args, option, valid) ->
      let code, out = run_cli args in
      if code <> 124 then
        Alcotest.failf "%s: expected exit 124, got %d:\n%s" args code out;
      Alcotest.(check bool)
        (Printf.sprintf "%s: the message names %s" args option)
        true
        (contains ~needle:(Printf.sprintf "option '%s'" option) out);
      Alcotest.(check bool)
        (Printf.sprintf "%s: the message lists %S" args valid)
        true (contains ~needle:valid out))
    [
      ("run CS.reorder_3_bad --limit 10 --por bogus", "--por", "valid: sleep");
      ("run CS.reorder_3_bad --limit 10 -t bogus", "--technique", "itb");
      ("run CS.reorder_3_bad --limit 10 -t ,", "--technique", "itb");
      ("fuzz --count 1 -t bogus", "--technique", "itb");
      ("corpus mine --count 1 -t ,", "--technique", "itb");
      ("por CS.reorder_3_bad --mode bogus", "--mode", "valid: sleep");
      ("fuzz --count 1 --vocab bogus", "--vocab", "classic");
      ("corpus mine --count 1 --vocab bogus", "--vocab", "classic");
      (Printf.sprintf "campaign worker --shard bogus --store %s"
         (Filename.quote store), "--shard", "K/N");
      (Printf.sprintf "campaign worker --shard 3/3 --store %s"
         (Filename.quote store), "--shard", "K/N");
      (Printf.sprintf "campaign run --suite cs --policy bogus --store %s"
         (Filename.quote store), "--policy", "unknown option");
    ];
  Alcotest.(check bool) "no store was created" false (Sys.file_exists store);
  let code, out = run_cli "run CS.reorder_3_bad --limit 10 -t ipb,,rand" in
  if code <> 0 then Alcotest.failf "-t ipb,,rand: exit %d:\n%s" code out;
  Alcotest.(check bool) "empty fragments are skipped" true
    (contains ~needle:"IPB" out && contains ~needle:"Rand" out);
  let code, out = run_cli "por CS.reorder_3_bad --limit 50 --mode both" in
  if code <> 0 then Alcotest.failf "--mode both: exit %d:\n%s" code out;
  Alcotest.(check bool) "both is dpor+sleep" true
    (contains ~needle:"CS.reorder_3_bad: " out)

let suites =
  [
    ( "cli-artifacts",
      [
        Alcotest.test_case "replay: genuine witness exits 0" `Slow
          test_replay_reproduces;
        Alcotest.test_case "replay: non-reproducing witness exits 1" `Slow
          test_replay_not_reproducing;
        Alcotest.test_case "replay: tampered .sched exits 1" `Slow
          test_replay_tampered_file;
        Alcotest.test_case "replay: unknown digest exits 1" `Slow
          test_replay_missing_digest;
        Alcotest.test_case "numeric flags: out of range exits 124" `Quick
          test_numeric_flags_checked;
        Alcotest.test_case "named flags: bad values exit 124" `Quick
          test_named_flags_checked;
      ] );
  ]
