(* The prefix-memoizing batched executor (lib/explore/prefix_exec).

   1. Fork server vs portable fallback: bit-identical walk results on the
      same bounded trees (skipped where forking is unavailable).
   2. Batched walk vs classic backtracking DFS: identical in every field
      except the step counters, which must conserve total work
      (executed + saved = unbatched executed) and actually save.
   3. Batched vs unbatched technique campaigns (DFS/IPB/IDB) through
      [Techniques.run]: equal statistics modulo steps, and a >= 2x cut in
      steps executed on tree-shaped benchmarks.
   4. Golden byte-identity: the rendered table-3 text is identical for
      batching on/off and for --jobs 1 vs 4.
   5. Store resume across a real SIGKILL mid-batch: a killed batched run
      resumes on the same store into exactly the clean rows. *)

open Sct_core
open Sct_explore

let promote_all _ = true
let stats_t = Alcotest.testable Stats.pp Stats.equal

let two_seq a b () =
  let (_ : Tid.t) =
    Sct.spawn
      (fun () ->
        for _ = 1 to b do
          Sct.yield ()
        done)
  in
  for _ = 1 to a do
    Sct.yield ()
  done

let pick name =
  match Sctbench.Registry.by_name name with
  | Some b -> b
  | None -> Alcotest.fail ("missing benchmark " ^ name)

let bench_program name = (pick name).Sctbench.Bench.program

(* (name, program, bound, count_exact, limit) — small unbounded, bounded
   and truncated walks *)
let walk_cases () =
  [
    ("two_seq-4-4", two_seq 4 4, Dfs.Unbounded, None, 1_000);
    ("two_seq-4-4/truncated", two_seq 4 4, Dfs.Unbounded, None, 30);
    ("two_seq-5-3/pb1", two_seq 5 3, Dfs.Preemption 1, Some 1, 1_000);
    ("two_seq-5-3/db2", two_seq 5 3, Dfs.Delay 2, Some 2, 1_000);
    ( "twostage/truncated",
      bench_program "CS.twostage_bad",
      Dfs.Unbounded,
      None,
      150 );
    ( "account/pb1",
      bench_program "CS.account_bad",
      Dfs.Preemption 1,
      Some 1,
      300 );
  ]

let run_walk ?fork (name, program, bound, count_exact, limit) =
  ignore name;
  Prefix_exec.explore ~promote:promote_all ?count_exact ?fork ~bound ~limit
    program

(* 1. the two back-ends are interchangeable, bit for bit *)
let test_fork_matches_fallback () =
  if not (Prefix_exec.fork_available ()) then ()
  else
    List.iter
      (fun case ->
        let (name, _, _, _, _) = case in
        let fallback = run_walk ~fork:false case in
        let forked = run_walk ~fork:true case in
        Alcotest.(check bool)
          (name ^ ": fork == fallback") true
          (fallback = forked))
      (walk_cases ())

(* 2. batched walk == classic DFS modulo steps, with conservation *)
let test_batched_walk_matches_dfs () =
  List.iter
    (fun ((name, program, bound, count_exact, limit) as case) ->
      let dfs =
        Dfs.explore ~promote:promote_all ?count_exact ~bound ~limit program
      in
      let batched = run_walk case in
      Alcotest.(check bool)
        (name ^ ": equal modulo steps") true
        ({
           batched with
           Strategy.steps_executed = dfs.Dfs.steps_executed;
           steps_saved = dfs.Dfs.steps_saved;
         }
        = dfs);
      Alcotest.(check int)
        (name ^ ": unbatched DFS saves nothing")
        0 dfs.Dfs.steps_saved;
      Alcotest.(check int)
        (name ^ ": steps conserved")
        dfs.Dfs.steps_executed
        (batched.Strategy.steps_executed + batched.Strategy.steps_saved);
      if batched.Strategy.counted > 1 then
        Alcotest.(check bool)
          (name ^ ": batching saved steps")
          true
          (batched.Strategy.steps_saved > 0))
    (walk_cases ())

(* --- batched campaigns through Techniques.run --- *)

let plain_options =
  { Techniques.default_options with Techniques.limit = 200 }

let batched_options = { plain_options with Techniques.prefix_batch = true }
let tree_techniques = [ Techniques.DFS; Techniques.IPB; Techniques.IDB ]
let campaign_benches = [ "CS.lazy01_bad"; "CS.twostage_bad" ]

(* 3. batched == unbatched statistics modulo steps; >= 2x steps cut *)
let test_batched_campaigns_match () =
  List.iter
    (fun bname ->
      let program = bench_program bname in
      let promote =
        Sct_race.Promotion.promote
          (Techniques.detect_races plain_options program)
      in
      List.iter
        (fun t ->
          let what = bname ^ "/" ^ Techniques.name t in
          let plain = Techniques.run ~promote plain_options t program in
          let batched = Techniques.run ~promote batched_options t program in
          Alcotest.check stats_t
            (what ^ ": equal modulo steps")
            plain
            {
              batched with
              Stats.steps_executed = plain.Stats.steps_executed;
              steps_saved = plain.Stats.steps_saved;
            };
          Alcotest.(check int)
            (what ^ ": unbatched driver saves nothing")
            0 plain.Stats.steps_saved;
          Alcotest.(check int)
            (what ^ ": steps conserved")
            plain.Stats.steps_executed
            (batched.Stats.steps_executed + batched.Stats.steps_saved);
          (* a campaign that only ever counted one schedule has no prefix
             to share (e.g. IDB here: level 0 is a single run) *)
          if batched.Stats.total > 1 then
            Alcotest.(check bool)
              (what ^ ": batching saved steps")
              true
              (batched.Stats.steps_saved > 0);
          (* the tentpole factor: DFS spends its whole budget deep in one
             tree, so the >= 2x cut must already show at this limit. The
             iterative-bounding campaigns start at shallow levels where
             there is little prefix to share; their >= 2x cut is measured
             at the paper's limits by the bench baseline gate instead. *)
          if t = Techniques.DFS then
            Alcotest.(check bool)
              (Printf.sprintf "%s: >= 2x steps cut (%d executed, %d saved)"
                 what batched.Stats.steps_executed batched.Stats.steps_saved)
              true
              (2 * batched.Stats.steps_executed <= plain.Stats.steps_executed))
        tree_techniques)
    campaign_benches

(* --- golden byte-identity of the rendered tables --- *)

let golden_limit = 200

let golden_benches () =
  List.map pick [ "CS.lazy01_bad"; "CS.deadlock01_bad"; "CS.account_bad" ]

let render rows =
  let buf = Buffer.create 4096 in
  let fmt = Format.formatter_of_buffer buf in
  Sct_report.Table3.print ~out:fmt ~limit:golden_limit rows;
  Format.pp_print_flush fmt ();
  Buffer.contents buf

(* 4. the report is byte-identical for batching on/off and jobs 1 vs 4 *)
let test_tables_byte_identical () =
  let benches = golden_benches () in
  let o = { plain_options with Techniques.limit = golden_limit } in
  let ob = { o with Techniques.prefix_batch = true } in
  let off = render (Sct_report.Run_data.run_all o benches) in
  let on = render (Sct_report.Run_data.run_all ob benches) in
  let on_jobs4 =
    render
      (Sct_parallel.Pool.with_pool ~jobs:4 (fun pool ->
           Sct_parallel.Suite.run_all ~pool ob benches))
  in
  Alcotest.(check string) "batching on == off" off on;
  Alcotest.(check string) "jobs 4 == jobs 1" on on_jobs4

(* --- SIGKILL mid-batch, then resume --- *)

let fresh_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    let f = Filename.temp_file "sct_prefix_exec" (string_of_int !counter) in
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

let check_rows_equal clean resumed =
  List.iter2
    (fun (c : Sct_report.Run_data.row) (r : Sct_report.Run_data.row) ->
      let name = c.Sct_report.Run_data.bench.Sctbench.Bench.name in
      Alcotest.(check int)
        (name ^ " racy") c.Sct_report.Run_data.racy_locations
        r.Sct_report.Run_data.racy_locations;
      List.iter2
        (fun (t1, s1) (t2, s2) ->
          Alcotest.(check bool) "technique order" true (t1 = t2);
          Alcotest.check stats_t
            (name ^ " " ^ Techniques.name t1)
            s1 s2)
        c.Sct_report.Run_data.results r.Sct_report.Run_data.results)
    clean resumed

(* wait until the journal holds at least one complete record *)
let wait_for_first_record journal =
  let deadline = Unix.gettimeofday () +. 60. in
  let rec wait () =
    let ready =
      Sys.file_exists journal
      && In_channel.with_open_bin journal (fun ic ->
             String.contains
               (really_input_string ic (in_channel_length ic))
               '\n')
    in
    if ready then ()
    else if Unix.gettimeofday () > deadline then
      Alcotest.fail "the batched child run made no progress"
    else begin
      Unix.sleepf 0.01;
      wait ()
    end
  in
  wait ()

(* 5. SIGKILL a batched stored run mid-campaign; resume must reproduce the
   clean rows exactly. The killed child is running fork-server batches, so
   the kill also orphans in-flight worker processes — they die on their
   broken pipes without corrupting the store. *)
let test_sigkill_resume () =
  if not (Prefix_exec.fork_available ()) then ()
  else
    with_dir (fun dir ->
        let o = { batched_options with Techniques.limit = 40 } in
        let benches = golden_benches () in
        let clean = Sct_report.Run_data.run_all o benches in
        (match Unix.fork () with
        | 0 ->
            (* the child never returns into the test runner *)
            (try
               let db = Sct_store.Db.open_ ~dir in
               ignore
                 (Sct_report.Run_data.run_all ~store:db o benches
                   : Sct_report.Run_data.row list);
               Sct_store.Db.close db
             with _ -> ());
            Unix._exit 0
        | pid ->
            wait_for_first_record (Filename.concat dir "journal.jsonl");
            Unix.kill pid Sys.sigkill;
            ignore (Unix.waitpid [] pid));
        let db = Sct_store.Db.open_ ~dir in
        let partial = Sct_store.Db.size db in
        let resumed = Sct_report.Run_data.run_all ~store:db o benches in
        let n_cells =
          List.length benches * List.length Techniques.all_paper
        in
        Alcotest.(check bool)
          "the kill landed mid-campaign" true
          (partial >= 1 && partial < n_cells);
        Alcotest.(check int)
          "all cells journalled" n_cells (Sct_store.Db.size db);
        Sct_store.Db.close db;
        check_rows_equal clean resumed)

(* Order matters: the fork-dependent cases must run before any test that
   creates a multi-worker pool — once a second domain ever existed, the
   OCaml runtime refuses [Unix.fork] for the rest of the process and
   [fork_available] correctly reports so. The jobs-4 table comparison
   therefore runs last. *)
let suites =
  [
    ( "prefix-exec",
      [
        Alcotest.test_case "fork server == fallback" `Quick
          test_fork_matches_fallback;
        Alcotest.test_case "batched walk == DFS modulo steps" `Quick
          test_batched_walk_matches_dfs;
        Alcotest.test_case "SIGKILL mid-batch, store resume" `Slow
          test_sigkill_resume;
        Alcotest.test_case "batched campaigns == unbatched, >= 2x steps cut"
          `Slow test_batched_campaigns_match;
        Alcotest.test_case "tables byte-identical: on/off, jobs 1/4" `Slow
          test_tables_byte_identical;
      ] );
  ]
