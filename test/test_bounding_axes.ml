(* The four bounding axes beyond the paper — fair bounding, length
   bounding, variable bounding and thread bounding — and their laws:

   1. inclusion/monotonicity on generated programs: the schedule set
      admitted at bound k is contained in the set at bound k+1, per axis;
   2. degenerate bounds: Fair at an unreachable yield bound is
      byte-identical to plain IPB, and Length at (or above) the longest
      schedule is byte-identical to unbounded DFS;
   3. the acceptance demo: fair bounding finds yield.spinwait_bad's bug
      within a few hundred executions while plain IPB and DFS exhaust a
      500-schedule budget inside the decoy spin subtrees;
   4. the exact unknown-name listing of Techniques.parse_list;
   5. a study slice including the axes is byte-identical across --jobs
      values, and an axes campaign killed mid-cell resumes to the same
      journal bytes. *)

open Sct_explore
module Schedule = Sct_core.Schedule

let stats_t = Alcotest.testable Stats.pp Stats.equal
let promote_all _ = true

let pick name =
  match Sctbench.Registry.by_name name with
  | Some b -> b
  | None -> Alcotest.fail ("missing benchmark " ^ name)

(* --- 1. inclusion: bound k admits a subset of bound k+1 ----------------- *)

(* Walk [program] under [strategy], collecting every counted terminal
   schedule. The budget is high enough that the small generated programs
   exhaust their spaces; walks that still hit it are skipped (a truncated
   enumeration need not nest). *)
let sched_set strategy program =
  let set = ref Stats.Sched_set.empty in
  let s =
    Driver.explore ~promote:promote_all ~max_steps:1_000
      ~on_schedule:(fun res ->
        set := Stats.Sched_set.add (Schedule.to_list res.Sct_core.Runtime.r_schedule) !set)
      ~limit:4_000 strategy program
  in
  (s, !set)

let axes_of_bound =
  [
    ("fair", fun k -> Dfs.strategy ~fair:k ~bound:Dfs.Unbounded ());
    ("length", fun k -> Dfs.strategy ~length:k ~bound:Dfs.Unbounded ());
    ("variable", fun k -> Dfs.strategy ~bound:(Dfs.Variable k) ());
    ("thread", fun k -> Dfs.strategy ~bound:(Dfs.Threads k) ());
  ]

let prop_inclusion =
  QCheck2.Test.make ~name:"bound k admits a subset of bound k+1, every axis"
    ~count:30 ~print:string_of_int
    QCheck2.Gen.(int_range 0 1_000)
    (fun seed ->
      let program = Sct_fuzz.Compile.program (Sct_fuzz.Gen.program ~seed) in
      List.iter
        (fun (axis, strat) ->
          List.iter
            (fun k ->
              let sk, set_k = sched_set (strat k) program in
              let sk1, set_k1 = sched_set (strat (k + 1)) program in
              if not (sk.Stats.hit_limit || sk1.Stats.hit_limit) then begin
                if not (Stats.Sched_set.subset set_k set_k1) then
                  QCheck2.Test.fail_reportf
                    "seed %d, %s bounding: bound %d admits a schedule bound \
                     %d does not"
                    seed axis k (k + 1);
                if sk.Stats.total > sk1.Stats.total then
                  QCheck2.Test.fail_reportf
                    "seed %d, %s bounding: counted %d at bound %d but %d at \
                     bound %d"
                    seed axis sk.Stats.total k sk1.Stats.total (k + 1)
              end)
            (match axis with
            | "length" -> [ 1; 4 ] (* length 0 admits nothing interesting *)
            | _ -> [ 0; 1 ]))
        axes_of_bound;
      true)

(* --- 2. degenerate bounds: the filters vanish ---------------------------- *)

let run_t o t program = Techniques.run ~promote:promote_all o t program

let prop_fair_unbounded_is_ipb =
  QCheck2.Test.make
    ~name:"Fair at an unreachable yield bound == plain IPB, byte for byte"
    ~count:25 ~print:string_of_int
    QCheck2.Gen.(int_range 0 1_000)
    (fun seed ->
      let program = Sct_fuzz.Compile.program (Sct_fuzz.Gen.program ~seed) in
      let o = { Techniques.default_options with Techniques.limit = 300 } in
      let ipb = run_t o Techniques.IPB program in
      let fair =
        run_t { o with Techniques.fair_bound = max_int } Techniques.Fair
          program
      in
      Stats.equal { fair with Stats.technique = ipb.Stats.technique } ipb)

let prop_length_at_longest_is_dfs =
  QCheck2.Test.make
    ~name:"Length at the longest schedule == unbounded DFS, byte for byte"
    ~count:25 ~print:string_of_int
    QCheck2.Gen.(int_range 0 1_000)
    (fun seed ->
      let program = Sct_fuzz.Compile.program (Sct_fuzz.Gen.program ~seed) in
      let o = { Techniques.default_options with Techniques.limit = 300 } in
      let longest = ref 0 in
      let dfs =
        Driver.explore ~promote:promote_all ~max_steps:o.Techniques.max_steps
          ~on_schedule:(fun res ->
            longest :=
              max !longest
                (List.length
                   (Schedule.to_list res.Sct_core.Runtime.r_schedule)))
          ~limit:o.Techniques.limit
          (Dfs.strategy ~bound:Dfs.Unbounded ())
          program
      in
      (* schedules of exactly [length_bound] decisions still count: the
         bound set to the longest observed schedule cuts nothing *)
      let len =
        run_t
          { o with Techniques.length_bound = max 1 !longest }
          Techniques.Length program
      in
      Stats.equal { len with Stats.technique = dfs.Stats.technique } dfs)

(* --- 3. the yield-loop acceptance demo ----------------------------------- *)

(* yield.spinwait_bad: the one-preemption witness hides at the start of
   the program behind three decoy spin loops. At a 500-schedule budget,
   plain IPB and unbounded DFS both exhaust the limit inside the yield-spam
   subtrees without the bug; fair bounding at the default bound cuts every
   unbalanced spin and reaches the bug on its first counted schedule. *)
let test_spinwait_demo () =
  let b = pick "yield.spinwait_bad" in
  let o = { Techniques.default_options with Techniques.limit = 500 } in
  let det = Techniques.detect_races o b.Sctbench.Bench.program in
  let promote = Sct_race.Promotion.promote det in
  let run t = Techniques.run ~promote o t b.Sctbench.Bench.program in
  let fair = run Techniques.Fair in
  Alcotest.(check bool) "fair bounding finds the bug" true (Stats.found fair);
  Alcotest.(check (option int))
    "found with a single preemption" (Some 1) fair.Stats.bound;
  Alcotest.(check (option int))
    "on the first counted schedule" (Some 1) fair.Stats.to_first_bug;
  Alcotest.(check bool)
    (Printf.sprintf "the spins were cut, not enumerated (cuts=%d)"
       fair.Stats.cut_runs)
    true
    (fair.Stats.cut_runs > 0);
  Alcotest.(check bool)
    "fair stayed within the budget" true
    (fair.Stats.total + fair.Stats.cut_runs <= o.Techniques.limit);
  let ipb = run Techniques.IPB in
  Alcotest.(check bool) "plain IPB exhausts the budget" true
    ipb.Stats.hit_limit;
  Alcotest.(check bool) "plain IPB misses the bug" false (Stats.found ipb);
  let dfs = run Techniques.DFS in
  Alcotest.(check bool) "unbounded DFS exhausts the budget" true
    dfs.Stats.hit_limit;
  Alcotest.(check bool) "unbounded DFS misses the bug" false (Stats.found dfs)

(* cas_yield_bad carries the no-bug-lost boundary: its witness spends 3
   yields, inside the default fair bound of 5 — fair bounding keeps it. *)
let test_cas_yield_kept () =
  let b = pick "yield.cas_yield_bad" in
  let o = { Techniques.default_options with Techniques.limit = 3_000 } in
  let det = Techniques.detect_races o b.Sctbench.Bench.program in
  let promote = Sct_race.Promotion.promote det in
  let fair = Techniques.run ~promote o Techniques.Fair b.Sctbench.Bench.program in
  Alcotest.(check bool)
    "fair bounding keeps the 3-yield witness" true (Stats.found fair);
  Alcotest.(check (option int))
    "at preemption bound 1" (Some 1) fair.Stats.bound

(* --- 4. parse_list: the exact unknown-name listing ----------------------- *)

let test_parse_list_listing () =
  let valid = "ipb, idb, dfs, rand, pct, maple, surw, fair, length, ivb, itb" in
  (match Techniques.parse_list [ "bogus" ] with
  | Error msg ->
      Alcotest.(check string)
        "unknown name lists every technique"
        (Printf.sprintf "unknown technique: bogus (valid: %s)" valid)
        msg
  | Ok _ -> Alcotest.fail "parse_list accepted an unknown name");
  (match Techniques.parse_list [ "," ] with
  | Error msg ->
      Alcotest.(check string)
        "empty spec lists every technique"
        (Printf.sprintf "no technique names given (valid: %s)" valid)
        msg
  | Ok _ -> Alcotest.fail "parse_list accepted an empty spec");
  match Techniques.parse_list [ "fair,length"; "ivb"; "itb" ] with
  | Ok ts ->
      Alcotest.(check (list string))
        "the axes parse in order"
        [ "Fair"; "Length"; "IVB"; "ITB" ]
        (List.map Techniques.name ts)
  | Error msg -> Alcotest.fail msg

(* --- 5. parallel and crash-resume determinism with the axes -------------- *)

let axes_study_techniques =
  [
    Techniques.IPB; Techniques.DFS; Techniques.Fair; Techniques.Length;
    Techniques.IVB; Techniques.ITB;
  ]

let render_table3 ~limit rows =
  let buf = Buffer.create 2048 in
  let fmt = Format.formatter_of_buffer buf in
  Sct_report.Table3.print ~out:fmt ~limit rows;
  Format.pp_print_flush fmt ();
  Buffer.contents buf

let test_jobs_byte_identical () =
  let benches = [ pick "yield.cas_yield_bad"; pick "yield.livelock_bad" ] in
  let o = { Techniques.default_options with Techniques.limit = 200 } in
  let table jobs =
    Sct_parallel.Pool.with_pool ~jobs (fun pool ->
        render_table3 ~limit:o.Techniques.limit
          (List.map
             (Sct_report.Run_data.run_benchmark
                ~techniques:axes_study_techniques
                ~run:(Sct_parallel.Drivers.run ~pool) o)
             benches))
  in
  let t1 = table 1 in
  Alcotest.(check string) "table3 bytes: --jobs 4 == --jobs 1" t1 (table 4);
  Alcotest.(check bool) "the axes columns are present" true
    (List.for_all
       (fun needle -> Astring_contains.contains t1 needle)
       [ "Fair b/first"; "Length b/first"; "IVB b/first"; "ITB b/first" ])

(* An axes-only campaign killed mid-cell (exception inside a slice, then a
   torn journal record — the on-disk state an actual SIGKILL leaves) must
   resume to byte-identical journal statistics and status report. *)

let fresh_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    let f = Filename.temp_file "sct_axes_test" (string_of_int !counter) in
    Sys.remove f;
    Sys.mkdir f 0o755;
    f

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let with_dir f =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

exception Killed

let test_campaign_kill_resume () =
  let module Db = Sct_store.Db in
  let module Cell = Sct_campaign.Cell in
  let module Orchestrator = Sct_campaign.Orchestrator in
  (* spinwait's bug sits behind 241 cut spin runs (all charged to the
     budget), so the cell limit must clear that before the first counted
     schedule *)
  let o = { Techniques.default_options with Techniques.limit = 300 } in
  let axes =
    [ Techniques.Fair; Techniques.Length; Techniques.IVB; Techniques.ITB ]
  in
  let benches = [ pick "yield.spinwait_bad"; pick "yield.cas_yield_bad" ] in
  let grid () = Cell.grid ~techniques:axes o benches in
  let run ?on_slice db =
    Sct_parallel.Pool.with_pool ~jobs:1 (fun pool ->
        Orchestrator.run ~slice:60 ?on_slice ~pool ~db (grid ()))
  in
  let render_status db =
    let buf = Buffer.create 1024 in
    let fmt = Format.formatter_of_buffer buf in
    Sct_campaign.Status.render fmt db;
    Format.pp_print_flush fmt ();
    Buffer.contents buf
  in
  let cells_of db =
    List.map
      (fun (c : Cell.t) ->
        match Db.find db c.Cell.key with
        | None -> Alcotest.fail (Cell.name c ^ " not finished in store")
        | Some e -> (Cell.name c, e.Db.e_stats)
      )
      (grid ())
  in
  with_dir @@ fun clean_dir ->
  with_dir @@ fun crash_dir ->
  let clean_db = Db.open_ ~dir:clean_dir in
  let (_ : Orchestrator.outcome) = run clean_db in
  let clean_cells = cells_of clean_db in
  let clean_status = render_status clean_db in
  Db.close clean_db;
  (* the axes cells really do find their bugs in this grid *)
  Alcotest.(check bool) "a Fair cell found spinwait's bug" true
    (List.exists
       (fun (name, s) ->
         name = "yield.spinwait_bad/Fair" && Stats.found s)
       clean_cells);
  (* crash after the second journalled slice — mid-cell, since every cell
     here takes multiple slices or sits behind one that does *)
  let db = Db.open_ ~dir:crash_dir in
  let seen = ref 0 in
  (try
     ignore
       (run
          ~on_slice:(fun _ _ ->
            incr seen;
            if !seen = 2 then raise Killed)
          db
         : Orchestrator.outcome)
   with Killed -> ());
  Db.close db;
  (* a SIGKILL can tear the final record; the journal must shrug it off *)
  let oc =
    open_out_gen
      [ Open_wronly; Open_append; Open_binary ]
      0o644
      (Filename.concat crash_dir "journal.jsonl")
  in
  output_string oc {|{"v":1,"key":"torn|};
  close_out oc;
  let db = Db.open_ ~dir:crash_dir in
  let (_ : Orchestrator.outcome) = run db in
  List.iter2
    (fun (name, stats) (name', stats') ->
      Alcotest.(check string) "cell order" name name';
      Alcotest.check stats_t ("resumed " ^ name) stats stats')
    clean_cells (cells_of db);
  Alcotest.(check string)
    "resumed status byte-identical to uninterrupted" clean_status
    (render_status db);
  Db.close db

let suites =
  [
    ( "bounding-axes",
      [
        QCheck_alcotest.to_alcotest prop_inclusion;
        QCheck_alcotest.to_alcotest prop_fair_unbounded_is_ipb;
        QCheck_alcotest.to_alcotest prop_length_at_longest_is_dfs;
        Alcotest.test_case "fair bounding cracks yield.spinwait_bad" `Slow
          test_spinwait_demo;
        Alcotest.test_case "fair bounding keeps the 3-yield witness" `Slow
          test_cas_yield_kept;
        Alcotest.test_case "parse_list pins the exact name listing" `Quick
          test_parse_list_listing;
        Alcotest.test_case "axes table3 is byte-identical across --jobs"
          `Slow test_jobs_byte_identical;
        Alcotest.test_case "axes campaign killed mid-cell resumes exactly"
          `Slow test_campaign_kill_resume;
      ] );
  ]
