(* Prefix-batched campaigns: the plain bounded walk with the step counter
   of lib/explore/prefix_exec watching each walk.

   1. Batched vs plain DFS, IPB and IDB through [Techniques.run], on small
      unbounded, bounded and truncated trees: identical in every field
      except the step counters, which must conserve total work
      (executed + saved = unbatched executed), save, and equal the counts
      pinned below.
   2. The same on benchmarks, with a >= 2x cut in steps executed where
      shared prefixes dominate.
   3. Golden byte-identity: the rendered table-3 text is identical for
      batching on/off and for --jobs 1 vs 4.
   4. Store resume across a real SIGKILL mid-campaign: a killed batched
      run resumes on the same store into exactly the clean rows. *)

open Sct_core
open Sct_explore

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

(* (name, program, technique, limit, (steps executed, steps saved)): the
   step counts of the batched campaign, as the earlier forking executor
   and its re-executing fallback both reported them. Each bound level's
   walk starts a fresh count, so its first terminal pays its whole
   schedule. *)
let walk_cases () =
  [
    ("two_seq-4-4", two_seq 4 4, Techniques.DFS, 1_000, (251, 379));
    ("two_seq-4-4/truncated", two_seq 4 4, Techniques.DFS, 30, (112, 158));
    ("two_seq-5-3/ipb", two_seq 5 3, Techniques.IPB, 1_000, (679, 770));
    ("two_seq-5-3/idb", two_seq 5 3, Techniques.IDB, 1_000, (679, 770));
    ( "twostage/truncated",
      bench_program "CS.twostage_bad",
      Techniques.DFS,
      150,
      (803, 1741) );
    ( "account/ipb",
      bench_program "CS.account_bad",
      Techniques.IPB,
      300,
      (89, 77) );
  ]

(* 1. batched walk == plain walk modulo steps, with conservation *)
let test_batched_walk_matches_dfs () =
  List.iter
    (fun (name, program, t, limit, (executed, saved)) ->
      let o = { Techniques.default_options with Techniques.limit } in
      let run o = Techniques.run ~promote:(fun _ -> true) o t program in
      let plain = run o in
      let batched = run { o with Techniques.prefix_batch = true } in
      Alcotest.check stats_t
        (name ^ ": equal modulo steps")
        plain
        {
          batched with
          Stats.steps_executed = plain.Stats.steps_executed;
          steps_saved = plain.Stats.steps_saved;
        };
      Alcotest.(check int)
        (name ^ ": unbatched walk saves nothing")
        0 plain.Stats.steps_saved;
      Alcotest.(check int)
        (name ^ ": steps conserved")
        plain.Stats.steps_executed
        (batched.Stats.steps_executed + batched.Stats.steps_saved);
      Alcotest.(check (pair int int))
        (name ^ ": pinned step counts")
        (executed, saved)
        (batched.Stats.steps_executed, batched.Stats.steps_saved))
    (walk_cases ())

(* --- batched campaigns through Techniques.run --- *)

let plain_options =
  { Techniques.default_options with Techniques.limit = 200 }

let batched_options = { plain_options with Techniques.prefix_batch = true }
let tree_techniques = [ Techniques.DFS; Techniques.IPB; Techniques.IDB ]
let campaign_benches = [ "CS.lazy01_bad"; "CS.twostage_bad" ]

(* 2. batched == unbatched statistics modulo steps; >= 2x steps cut *)
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

(* 3. the report is byte-identical for batching on/off and jobs 1 vs 4 *)
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

(* 4. SIGKILL a batched stored run mid-campaign; resume must reproduce the
   clean rows exactly. The child kills itself from its progress hook when
   the campaign reaches the last benchmark, so the kill lands after the
   first benchmarks' cells are journalled and before the last one's. *)
let test_sigkill_resume () =
  (* the runtime refuses [Unix.fork] once a second domain ever existed *)
  if not (Prefix_exec.fork_available ()) then ()
  else
    with_dir (fun dir ->
        let o = { batched_options with Techniques.limit = 40 } in
        let benches = golden_benches () in
        let killed_at = (List.nth benches 2).Sctbench.Bench.name in
        let clean = Sct_report.Run_data.run_all o benches in
        (match Unix.fork () with
        | 0 ->
            (* the child never returns into the test runner *)
            let progress (b : Sctbench.Bench.t) =
              if b.Sctbench.Bench.name = killed_at then
                Unix.kill (Unix.getpid ()) Sys.sigkill
            in
            (try
               let db = Sct_store.Db.open_ ~dir in
               ignore
                 (Sct_report.Run_data.run_all ~store:db ~progress o benches
                   : Sct_report.Run_data.row list);
               Sct_store.Db.close db
             with _ -> ());
            Unix._exit 0
        | pid -> (
            match snd (Unix.waitpid [] pid) with
            | Unix.WSIGNALED s when s = Sys.sigkill -> ()
            | _ -> Alcotest.fail "the child was not killed"));
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

(* Order matters: the SIGKILL case forks, so it must run before any test
   that creates a multi-domain pool (once a second domain ever existed,
   the OCaml runtime refuses [Unix.fork] for the rest of the process).
   The jobs-4 table comparison therefore runs last, and test_main runs
   this suite before any other suite makes a pool. *)
let suites =
  [
    ( "prefix-exec",
      [
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
