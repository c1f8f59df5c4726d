(* The fleet campaign orchestrator (lib/campaign): slice-resumable cells
   must reproduce the one-shot runner's statistics exactly, under any
   pool size, multi-process sharding with store merge, and
   interruption at any slice boundary (plus a torn journal tail). Also:
   scheduler determinism unit tests and the status-report and journal
   golden files. *)

module Stats = Sct_explore.Stats
module Techniques = Sct_explore.Techniques
module Db = Sct_store.Db
module Codec = Sct_store.Codec
module Cell = Sct_campaign.Cell
module Scheduler = Sct_campaign.Scheduler
module Orchestrator = Sct_campaign.Orchestrator
module Runner = Sct_campaign.Runner
module Status = Sct_campaign.Status

let stats_t = Alcotest.testable Stats.pp Stats.equal

(* --- temporary stores (same discipline as test_store) --- *)

let fresh_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    let f = Filename.temp_file "sct_campaign_test" (string_of_int !counter) in
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

let append_torn_record dir =
  let oc =
    open_out_gen
      [ Open_wronly; Open_append; Open_binary ]
      0o644
      (Filename.concat dir "journal.jsonl")
  in
  output_string oc {|{"v":1,"key":"torn|};
  close_out oc

(* --- the test grid: 2 benchmarks × all 11 techniques, so every parallel
   plan (tree walks with the bounding axes and MapleAlg, seed ranges) gets
   sliced --- *)

let pick name =
  match Sctbench.Registry.by_name name with
  | Some b -> b
  | None -> Alcotest.fail ("missing " ^ name)

let options = { Techniques.default_options with Techniques.limit = 40 }
let techniques = Techniques.all
let slice = 15
let benches () = [ pick "CS.lazy01_bad"; pick "CS.account_bad" ]
let grid () = Cell.grid ~techniques options (benches ())

let run_campaign ?on_slice ?(jobs = 1) ?(slice = slice) db cells =
  Sct_parallel.Pool.with_pool ~jobs (fun pool ->
      Orchestrator.run ~slice ?on_slice ~pool ~db cells)

let render_status db =
  let buf = Buffer.create 1024 in
  let fmt = Format.formatter_of_buffer buf in
  Status.render fmt db;
  Format.pp_print_flush fmt ();
  Buffer.contents buf

(* The final per-cell content of a campaign store, in grid order. *)
let cells_of db =
  List.map
    (fun (c : Cell.t) ->
      match Db.find db c.Cell.key with
      | None -> Alcotest.fail (Cell.name c ^ " not finished in store")
      | Some e -> (Cell.name c, e.Db.e_racy, e.Db.e_stats, e.Db.e_progress))
    (grid ())

let check_cells_equal what expected got =
  List.iter2
    (fun (name, racy, stats, progress) (name', racy', stats', progress') ->
      Alcotest.(check string) (what ^ ": cell order") name name';
      Alcotest.(check int) (what ^ ": " ^ name ^ " racy") racy racy';
      Alcotest.check stats_t (what ^ ": " ^ name) stats stats';
      Alcotest.(check bool)
        (what ^ ": " ^ name ^ " slice counts")
        true
        (match (progress, progress') with
        | Some p, Some p' -> p = (p' : Codec.progress)
        | None, None -> true
        | _ -> false))
    expected got

(* One clean single-process uniform campaign: the reference every other
   configuration must reproduce. Computed once. *)
let clean_campaign =
  lazy
    (let dir = fresh_dir () in
     Fun.protect
       ~finally:(fun () -> rm_rf dir)
       (fun () ->
         let db = Db.open_ ~dir in
         let outcome = run_campaign db (grid ()) in
         let cells = cells_of db in
         let status = render_status db in
         Db.close db;
         (outcome, cells, status)))

(* The one-shot per-cell statistics the campaign must match, via the
   sequential [Techniques.run] — no slicing, no store, no pool. *)
let oneshot_cells =
  lazy
    (List.concat_map
       (fun (b : Sctbench.Bench.t) ->
         let det =
           Techniques.detect_races options b.Sctbench.Bench.program
         in
         let promote = Sct_race.Promotion.promote det in
         let racy = List.length det.Sct_race.Promotion.racy in
         List.map
           (fun t ->
             ( b.Sctbench.Bench.name ^ "/" ^ Techniques.name t,
               racy,
               Techniques.run ~promote options t b.Sctbench.Bench.program ))
           techniques)
       (benches ()))

(* --- the grid and its shards --- *)

let test_grid_order () =
  let cells = grid () in
  Alcotest.(check int)
    "2 benches x 11 techniques" 22 (List.length cells);
  Alcotest.(check (list int))
    "consecutive indices"
    (List.init 22 Fun.id)
    (List.map (fun c -> c.Cell.index) cells);
  (* benchmark-major, techniques in registry order *)
  Alcotest.(check (list string))
    "order matches the one-shot runner"
    [
      "CS.lazy01_bad/IPB"; "CS.lazy01_bad/IDB"; "CS.lazy01_bad/DFS";
      "CS.lazy01_bad/Rand"; "CS.lazy01_bad/PCT"; "CS.lazy01_bad/MapleAlg";
      "CS.lazy01_bad/SURW"; "CS.lazy01_bad/Fair"; "CS.lazy01_bad/Length";
      "CS.lazy01_bad/IVB"; "CS.lazy01_bad/ITB"; "CS.account_bad/IPB";
      "CS.account_bad/IDB"; "CS.account_bad/DFS"; "CS.account_bad/Rand";
      "CS.account_bad/PCT"; "CS.account_bad/MapleAlg"; "CS.account_bad/SURW";
      "CS.account_bad/Fair"; "CS.account_bad/Length"; "CS.account_bad/IVB";
      "CS.account_bad/ITB";
    ]
    (List.map Cell.name cells);
  let keys = List.map (fun c -> c.Cell.key) cells in
  Alcotest.(check int)
    "keys are distinct" 22
    (List.length (List.sort_uniq compare keys))

let test_shard_partition () =
  let cells = grid () in
  let shards = List.init 3 (fun k -> Cell.shard ~k ~n:3 cells) in
  Alcotest.(check int)
    "shards cover every cell" 22
    (List.length (List.concat shards));
  let indices =
    List.concat_map (List.map (fun c -> c.Cell.index)) shards
    |> List.sort compare
  in
  Alcotest.(check (list int))
    "disjoint lease: each index exactly once"
    (List.init 22 Fun.id) indices;
  (match Cell.shard ~k:3 ~n:3 cells with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "out-of-range shard accepted");
  match Cell.shard ~k:0 ~n:0 cells with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "zero shard count accepted"

(* --- the equivalence guarantees --- *)

let test_uniform_matches_oneshot () =
  let _, cells, _ = Lazy.force clean_campaign in
  List.iter2
    (fun (name, racy, stats) (name', racy', stats', progress) ->
      Alcotest.(check string) "cell order" name name';
      Alcotest.(check int) (name ^ " racy") racy racy';
      Alcotest.check stats_t (name ^ " stats equal one-shot run") stats
        stats';
      match progress with
      | Some p -> Alcotest.(check bool) (name ^ " done") true p.Codec.p_done
      | None -> Alcotest.fail (name ^ " missing campaign progress"))
    (Lazy.force oneshot_cells) cells

let test_worker_shards_then_merge () =
  let _, clean_cells, clean_status = Lazy.force clean_campaign in
  with_dir (fun dir ->
      let workers =
        List.init 3 (fun k ->
            let wdir = Filename.concat dir (Printf.sprintf "w%d" k) in
            let db = Db.open_ ~dir:wdir in
            let outcome =
              run_campaign db (Cell.shard ~k ~n:3 (grid ()))
            in
            Alcotest.(check int)
              (Printf.sprintf "worker %d finished its lease" k)
              outcome.Orchestrator.cells outcome.Orchestrator.finished;
            db)
      in
      let merged = Db.open_ ~dir:(Filename.concat dir "merged") in
      List.iter
        (fun src ->
          Db.merge_from merged ~src;
          Db.close src)
        workers;
      check_cells_equal "merged = single-process" clean_cells
        (cells_of merged);
      Alcotest.(check string)
        "merged status byte-identical to single-process" clean_status
        (render_status merged);
      Db.close merged)

let test_pool_same_results () =
  let _, clean_cells, _ = Lazy.force clean_campaign in
  with_dir (fun dir ->
      let db = Db.open_ ~dir in
      let (_ : Orchestrator.outcome) = run_campaign ~jobs:3 db (grid ()) in
      check_cells_equal "jobs=3 = jobs=1" clean_cells (cells_of db);
      Db.close db)

exception Interrupted

let test_interrupt_and_resume () =
  let clean_outcome, clean_cells, clean_status = Lazy.force clean_campaign in
  with_dir (fun dir ->
      (* "crash" after the 4th journalled slice, tear the final record *)
      let db = Db.open_ ~dir in
      let seen = ref 0 in
      (try
         ignore
           (run_campaign
              ~on_slice:(fun _ _ ->
                incr seen;
                if !seen = 4 then raise Interrupted)
              db (grid ())
             : Orchestrator.outcome)
       with Interrupted -> ());
      Db.close db;
      append_torn_record dir;
      (* resume: the remaining slices run as if never interrupted *)
      let db = Db.open_ ~dir in
      let resumed = run_campaign db (grid ()) in
      Alcotest.(check int)
        "exactly the remaining slices were granted"
        (clean_outcome.Orchestrator.slices - 4)
        resumed.Orchestrator.slices;
      check_cells_equal "resumed = uninterrupted" clean_cells (cells_of db);
      Alcotest.(check string)
        "resumed status byte-identical to uninterrupted" clean_status
        (render_status db);
      (* a third launch has nothing to do *)
      let noop = run_campaign db (grid ()) in
      Alcotest.(check int) "campaign is complete" 0 noop.Orchestrator.slices;
      Db.close db)

(* Every cell's slices continue one live session, prefix-batched tree
   cells included: over a whole campaign the program runs once per
   detection run, once per execution the final records report, and once
   per PCT or SURW cell for its probe, with no slice re-running an earlier
   slice's prefix or re-probing. *)
let test_cells_walk_and_probe_once () =
  let invocations = ref 0 in
  let counted (b : Sctbench.Bench.t) =
    {
      b with
      Sctbench.Bench.program =
        (fun () ->
          incr invocations;
          b.Sctbench.Bench.program ());
    }
  in
  let benches =
    List.map counted [ pick "CS.reorder_4_bad"; pick "CS.stack_bad" ]
  in
  let cells =
    Cell.grid
      ~techniques:Techniques.[ DFS; IPB; IDB; Rand; PCT; SURW ]
      options benches
    @ Cell.grid
        ~techniques:Techniques.[ DFS; IPB; IDB ]
        { options with Techniques.prefix_batch = true }
        benches
  in
  with_dir (fun dir ->
      let db = Db.open_ ~dir in
      let outcome = run_campaign db cells in
      let detection_runs =
        List.fold_left
          (fun acc (b : Sctbench.Bench.t) ->
            acc
            + (Techniques.detect_races options b.Sctbench.Bench.program)
                .Sct_race.Promotion.runs)
          0 benches
      in
      let executions =
        List.fold_left
          (fun acc (c : Cell.t) ->
            match Db.find db c.Cell.key with
            | Some e -> acc + e.Db.e_stats.Stats.executions
            | None -> Alcotest.fail (Cell.name c ^ " not finished"))
          0 cells
      in
      let probes =
        List.length
          (List.filter
             (fun (c : Cell.t) ->
               List.mem c.Cell.technique Techniques.[ PCT; SURW ])
             cells)
      in
      Db.close db;
      Alcotest.(check bool)
        "some cell took three slices" true
        (outcome.Orchestrator.slices >= List.length cells + 2);
      (* the detection recount above ran the programs once more *)
      Alcotest.(check int)
        "program invocations = detection runs + final executions + probes"
        ((2 * detection_runs) + executions + probes)
        !invocations)

(* A live session is a cache of the journal: one that stands ahead of the
   record a slice is granted from is not reused. Two slices leave a
   session at the second one's limit; a slice granted as if the cell had
   never run must then equal the first slice. *)
let test_session_ahead_of_journal () =
  let b = pick "CS.account_bad" in
  let promote =
    Sct_race.Promotion.promote
      (Techniques.detect_races options b.Sctbench.Bench.program)
  in
  Sct_parallel.Pool.with_pool ~jobs:1 (fun pool ->
      List.iter
        (fun (c : Cell.t) ->
          let n = Cell.name c in
          let sessions = Runner.sessions () in
          let grant prev =
            Runner.run_slice ~pool ~sessions ~promote ~slice ~prev c
          in
          let record (r : Runner.slice_result) =
            Some
              {
                Db.e_bench = b.Sctbench.Bench.name;
                e_technique = Techniques.name c.Cell.technique;
                e_racy = 0;
                e_stats = r.Runner.stats;
                e_witness = None;
                e_progress = Some r.Runner.progress;
              }
          in
          let first = grant None in
          let second = grant (record first) in
          Alcotest.(check bool)
            (n ^ ": the second slice leaves the cell open")
            false second.Runner.progress.Codec.p_done;
          let again = grant None in
          Alcotest.check stats_t (n ^ ": stats of the first slice")
            first.Runner.stats again.Runner.stats;
          Alcotest.(check bool)
            (n ^ ": progress of the first slice")
            true
            (first.Runner.progress = again.Runner.progress))
        (Cell.grid ~techniques:Techniques.[ DFS; PCT ] options [ b ]))

(* A seeded cell that the deadline stops finishes where it stopped, as a
   tree cell and the one-shot run do: it banks only the runs it ran. *)
let test_seeded_deadline_finishes_cell () =
  let o = { options with Techniques.time_limit = Some 0. } in
  let cells =
    Cell.grid ~techniques:Techniques.[ Rand; PCT; SURW ] o
      [ pick "CS.account_bad" ]
  in
  with_dir (fun dir ->
      let db = Db.open_ ~dir in
      let outcome = run_campaign db cells in
      Alcotest.(check int)
        "one slice per cell" (List.length cells) outcome.Orchestrator.slices;
      List.iter
        (fun (c : Cell.t) ->
          let n = Cell.name c in
          match Db.find db c.Cell.key with
          | Some { Db.e_stats = s; e_progress = Some p; _ } ->
              Alcotest.(check bool) (n ^ " done") true p.Codec.p_done;
              Alcotest.(check int) (n ^ " slices") 1 p.Codec.p_slices;
              Alcotest.(check int)
                (n ^ " consumed = total + cut runs")
                (s.Stats.total + s.Stats.cut_runs)
                p.Codec.p_consumed;
              Alcotest.(check bool)
                (n ^ " first bug within total")
                true
                (match s.Stats.to_first_bug with
                | Some i -> i <= s.Stats.total
                | None -> true)
          | Some _ | None ->
              Alcotest.fail (n ^ " has no finished campaign record"))
        cells;
      Db.close db)

(* --- scheduler determinism (pure unit tests) --- *)

let arm ?(slices = 1) ?(finished = false) consumed =
  Some
    {
      Scheduler.s_consumed = consumed;
      s_slices = slices;
      s_coverage = 0;
      s_bound = None;
      s_finished = finished;
    }

let test_scheduler_uniform () =
  let pick = Scheduler.pick in
  Alcotest.(check (option int)) "empty grid" None (pick [||]);
  Alcotest.(check (option int))
    "untried cells first, lowest index" (Some 0)
    (pick [| None; None |]);
  Alcotest.(check (option int))
    "round-robin: fewest slices next" (Some 1)
    (pick [| arm ~slices:2 30; arm ~slices:1 15 |]);
  Alcotest.(check (option int))
    "ties resolve to the lowest index" (Some 0)
    (pick [| arm ~slices:1 15; arm ~slices:1 15 |]);
  Alcotest.(check (option int))
    "finished cells are skipped" (Some 2)
    (pick [| arm ~finished:true 40; arm ~finished:true 40; arm ~slices:9 5 |]);
  Alcotest.(check (option int))
    "all finished = campaign over" None
    (pick [| arm ~finished:true 40; arm ~finished:true 40 |])

let test_state_of_legacy_entry () =
  (* a record written by the one-shot study runner: finished, one slice *)
  let e =
    {
      Db.e_bench = "B";
      e_technique = "Rand";
      e_racy = 0;
      e_stats = { (Stats.base ~technique:"Rand") with Stats.total = 40 };
      e_witness = None;
      e_progress = None;
    }
  in
  let st = Scheduler.state_of_entry e in
  Alcotest.(check bool) "finished" true st.Scheduler.s_finished;
  Alcotest.(check int) "consumed = total" 40 st.Scheduler.s_consumed;
  Alcotest.(check int) "one slice" 1 st.Scheduler.s_slices

(* --- golden files --- *)

(* [update_env] holds the absolute path of the golden file to rewrite;
   goldens with another file name are still checked. *)
let check_golden ~update_env ~file ~what produced =
  match Sys.getenv_opt update_env with
  | Some path when Filename.basename path = file ->
      Out_channel.with_open_bin path (fun oc -> output_string oc produced)
  | Some _ | None ->
      let golden =
        List.find_opt Sys.file_exists
          [
            Filename.concat (Filename.dirname Sys.executable_name) file;
            file;
            Filename.concat "test" file;
          ]
      in
      let golden =
        match golden with
        | Some p -> p
        | None -> Alcotest.fail (file ^ " not found")
      in
      let expected = In_channel.with_open_bin golden In_channel.input_all in
      Alcotest.(check string) (what ^ " byte-identical to golden") expected
        produced

let test_status_golden () =
  let _, _, status = Lazy.force clean_campaign in
  check_golden ~update_env:"SCT_CAMPAIGN_GOLDEN_UPDATE"
    ~file:"campaign_status_golden.txt" ~what:"campaign status" status

(* The journal of a small uniform campaign pins the store's bytes end to
   end: record layout, field order, integer and string rendering,
   fingerprints and witness digests. *)
let test_journal_golden () =
  with_dir (fun dir ->
      let db = Db.open_ ~dir in
      let cells =
        Cell.grid ~techniques:Techniques.all_paper
          { Techniques.default_options with Techniques.limit = 20 }
          [ pick "CS.lazy01_bad"; pick "CS.account_bad"; pick "CS.deadlock01_bad" ]
      in
      let (_ : Orchestrator.outcome) = run_campaign ~slice:5 db cells in
      Db.close db;
      check_golden ~update_env:"SCT_CAMPAIGN_GOLDEN_UPDATE"
        ~file:"campaign_journal_golden.jsonl" ~what:"campaign journal"
        (In_channel.with_open_bin
           (Filename.concat dir "journal.jsonl")
           In_channel.input_all))

let suites =
  [
    ( "campaign.cells",
      [
        Alcotest.test_case "grid is benchmark-major with distinct keys"
          `Quick test_grid_order;
        Alcotest.test_case "shards partition the grid; bad shards refused"
          `Quick test_shard_partition;
      ] );
    ( "campaign.scheduler",
      [
        Alcotest.test_case "uniform policy is a deterministic round-robin"
          `Quick test_scheduler_uniform;
        Alcotest.test_case "study-runner records read as finished cells"
          `Quick test_state_of_legacy_entry;
      ] );
    ( "campaign.equivalence",
      [
        Alcotest.test_case "uniform campaign equals the one-shot runner"
          `Slow test_uniform_matches_oneshot;
        Alcotest.test_case "3-shard workers + merge equal single-process"
          `Slow test_worker_shards_then_merge;
        Alcotest.test_case "pool size does not change results" `Slow
          test_pool_same_results;
        Alcotest.test_case "interrupted campaign resumes exactly" `Slow
          test_interrupt_and_resume;
        Alcotest.test_case
          "tree cells walk once across their slices, seeded cells probe once"
          `Quick test_cells_walk_and_probe_once;
        Alcotest.test_case "a session ahead of the journal is not reused"
          `Quick test_session_ahead_of_journal;
        Alcotest.test_case "a seeded cell stops at its deadline" `Quick
          test_seeded_deadline_finishes_cell;
      ] );
    ( "campaign.status",
      [
        Alcotest.test_case "status report matches the committed golden"
          `Slow test_status_golden;
        Alcotest.test_case "journal bytes match the committed golden" `Quick
          test_journal_golden;
      ] );
  ]
