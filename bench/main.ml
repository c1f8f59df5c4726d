(* The benchmark harness: regenerates every table and figure of the paper's
   evaluation (§6) and times the machinery with Bechamel.

   Usage:
     dune exec bench/main.exe                      (full study, limit 10000)
     dune exec bench/main.exe -- --limit 2000      (quicker study)
     dune exec bench/main.exe -- table3 fig2       (selected sections)
     dune exec bench/main.exe -- --jobs 4 table3   (parallel study run)
     dune exec bench/main.exe -- perf              (Bechamel timings only)
     dune exec bench/main.exe -- perf --out BENCH_engine.json
                                                   (machine-readable timings)
     dune exec bench/main.exe -- perf --out BENCH_engine.json \
       --baseline bench/BASELINE_engine.json [--baseline-factor 2.0]
                             (also fail on a regression beyond the factor)

   Sections: table1 table2 table3 fig2 fig3 fig4 por pct steps jobs perf
   (default: all). [--out]/[--baseline] imply the steps, jobs and perf
   sections; see BENCHMARKS.md for the JSON schema. *)

open Bechamel
open Toolkit

let sections, limit, seed, jobs, out_file, baseline_file, baseline_factor =
  let sections = ref [] in
  let limit = ref 10_000 in
  let seed = ref 0 in
  let jobs = ref 0 in
  let out_file = ref None in
  let baseline_file = ref None in
  let baseline_factor = ref 2.0 in
  let rec parse = function
    | [] -> ()
    | "--limit" :: v :: rest ->
        limit := int_of_string v;
        parse rest
    | "--seed" :: v :: rest ->
        seed := int_of_string v;
        parse rest
    | "--jobs" :: v :: rest ->
        jobs := int_of_string v;
        parse rest
    | "--out" :: v :: rest ->
        out_file := Some v;
        parse rest
    | "--baseline" :: v :: rest ->
        baseline_file := Some v;
        parse rest
    | "--baseline-factor" :: v :: rest ->
        baseline_factor := float_of_string v;
        parse rest
    | s :: rest ->
        sections := s :: !sections;
        parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  let all =
    [
      "table1"; "table2"; "table3"; "fig2"; "fig3"; "fig4"; "por"; "pct";
      "steps"; "jobs"; "perf";
    ]
  in
  let sections = if !sections = [] then all else List.rev !sections in
  let sections =
    (* the JSON artifact and the regression check are built from the perf,
       steps and jobs-sweep measurements, so those flags imply all three
       sections (steps before jobs: the sweep spawns worker domains, which
       permanently switches the batched executor to its fallback) *)
    if !out_file <> None || !baseline_file <> None then
      sections
      @ List.filter
          (fun s -> not (List.mem s sections))
          [ "steps"; "jobs"; "perf" ]
    else sections
  in
  let jobs = if !jobs <= 0 then Sct_parallel.Pool.default_jobs () else !jobs in
  (sections, !limit, !seed, jobs, !out_file, !baseline_file, !baseline_factor)

let wants s = List.mem s sections

let options =
  { Sct_explore.Techniques.default_options with
    Sct_explore.Techniques.limit; seed }

(* The full study run is shared by table2/table3/fig2/fig3/fig4. The rows
   are identical for every [jobs] value (see lib/parallel). *)
let study_rows =
  lazy
    (let progress (b : Sctbench.Bench.t) =
       Printf.eprintf "[%2d/52] %s...\n%!" b.Sctbench.Bench.id
         b.Sctbench.Bench.name
     in
     Sct_parallel.Pool.with_pool ~jobs (fun pool ->
         Sct_parallel.Suite.run_all ~pool ~progress options
           Sctbench.Registry.all))

let hr title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

(* Wall-clock per executed section, in execution order; part of the
   BENCH_engine.json artifact. *)
let section_timings : (string * float) list ref = ref []

let timed name f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  section_timings := !section_timings @ [ (name, Unix.gettimeofday () -. t0) ];
  r

(* --- Bechamel micro-benchmarks --- *)

let rr_scheduler (ctx : Sct_core.Runtime.ctx) =
  match ctx.c_enabled with
  | [ t ] -> t
  | enabled -> (
      match
        Sct_core.Delay.deterministic_choice ~n:ctx.c_n_threads
          ~last:ctx.c_last ~enabled
      with
      | Some t -> t
      | None -> assert false)

let bench_program name =
  match Sctbench.Registry.by_name name with
  | Some b -> b.Sctbench.Bench.program
  | None -> failwith ("missing benchmark " ^ name)

let promote_all _ = true

(* A campaign of one technique's registered strategy at the default
   options, every location promoted. *)
let campaign t ~limit program =
  Sct_explore.Driver.explore ~promote:promote_all ~limit
    (Sct_explore.Techniques.strategy Sct_explore.Techniques.default_options t
       program)
    program

let perf_tests () =
  let small = bench_program "CS.twostage_bad" in
  let wsq = bench_program "chess.WSQ" in
  let twostage_100 = bench_program "CS.twostage_100_bad" in
  let engine =
    Test.make_grouped ~name:"engine"
      [
        Test.make ~name:"rr-execution/twostage"
          (Staged.stage (fun () ->
               Sys.opaque_identity
                 (Sct_core.Runtime.exec ~promote:promote_all
                    ~record_decisions:false ~scheduler:rr_scheduler small)));
        Test.make ~name:"rr-execution/wsq"
          (Staged.stage (fun () ->
               Sys.opaque_identity
                 (Sct_core.Runtime.exec ~promote:promote_all
                    ~record_decisions:false ~scheduler:rr_scheduler wsq)));
        Test.make ~name:"rr-execution/spinwait"
          (Staged.stage (fun () ->
               Sys.opaque_identity
                 (Sct_core.Runtime.exec ~promote:promote_all
                    ~record_decisions:false ~scheduler:rr_scheduler
                    (bench_program "yield.spinwait_bad"))));
        (* the many-enabled decision path: 100 threads under delay
           bounding, where a decision's cost is quadratic or worse in the
           thread count unless it stays O(|enabled|) *)
        Test.make ~name:"idb-campaign/twostage-100"
          (Staged.stage (fun () ->
               Sys.opaque_identity
                 (campaign Sct_explore.Techniques.IDB ~limit:25 twostage_100)));
      ]
  in
  let yield_loops =
    (* the yield-loop family under the execution-level bounding axes: the
       cost of cutting spin subtrees rather than enumerating them *)
    let spin = bench_program "yield.spinwait_bad" in
    let cas = bench_program "yield.cas_yield_bad" in
    Test.make_grouped ~name:"yield-loops"
      [
        Test.make ~name:"fair-bounding/spinwait"
          (Staged.stage (fun () ->
               Sys.opaque_identity
                 (campaign Sct_explore.Techniques.Fair ~limit:300 spin)));
        Test.make ~name:"length-bounding/cas-yield"
          (Staged.stage (fun () ->
               Sys.opaque_identity
                 (campaign Sct_explore.Techniques.Length ~limit:300 cas)));
      ]
  in
  let techniques =
    (* per-technique cost of exploring (up to) 25 terminal schedules of the
       same benchmark: the ablation view of the study's engine *)
    Test.make_grouped ~name:"schedules-25"
      [
        Test.make ~name:"dfs"
          (Staged.stage (fun () ->
               Sys.opaque_identity
                 (Sct_explore.Dfs.explore ~promote:promote_all
                    ~bound:Sct_explore.Dfs.Unbounded ~limit:25 small)));
        Test.make ~name:"ipb"
          (Staged.stage (fun () ->
               Sys.opaque_identity
                 (campaign Sct_explore.Techniques.IPB ~limit:25 small)));
        Test.make ~name:"idb"
          (Staged.stage (fun () ->
               Sys.opaque_identity
                 (campaign Sct_explore.Techniques.IDB ~limit:25 small)));
        Test.make ~name:"rand"
          (Staged.stage (fun () ->
               Sys.opaque_identity
                 (Sct_explore.Seeded.explore ~promote:promote_all ~seed:1
                    ~runs:25 Sct_explore.Seeded.rand small)));
        Test.make ~name:"pct"
          (Staged.stage (fun () ->
               Sys.opaque_identity
                 (Sct_explore.Seeded.explore ~promote:promote_all ~seed:1
                    ~runs:25
                    (Sct_explore.Seeded.pct ~change_points:2)
                    small)));
        Test.make ~name:"surw"
          (Staged.stage (fun () ->
               Sys.opaque_identity
                 (Sct_explore.Seeded.explore ~promote:promote_all ~seed:1
                    ~runs:25 Sct_explore.Seeded.surw small)));
        (* MapleLite's campaign length is intrinsic (profiling runs plus one
           active run per candidate); the budget below makes it comparable
           to the other 25-schedule rows on this benchmark *)
        Test.make ~name:"maple"
          (Staged.stage (fun () ->
               Sys.opaque_identity
                 (Sct_explore.Maple_lite.explore ~promote:promote_all
                    ~profile_runs:10 ~seed:1 small)));
      ]
  in
  let race =
    Test.make_grouped ~name:"race-detection"
      [
        Test.make ~name:"one-round/twostage"
          (Staged.stage (fun () ->
               Sys.opaque_identity
                 (Sct_race.Promotion.detect ~runs:1 ~max_rounds:1 small)));
        Test.make ~name:"fixpoint/twostage"
          (Staged.stage (fun () ->
               Sys.opaque_identity (Sct_race.Promotion.detect ~runs:2 small)));
      ]
  in
  let parallel =
    (* the domain-pool engine on a 3-benchmark slice: jobs=1 falls back to
       the sequential code, jobs=4 exercises pool + merging (the measured
       time includes pool setup/teardown, as a real run would) *)
    let o =
      { Sct_explore.Techniques.default_options with
        Sct_explore.Techniques.limit = 200 }
    in
    let pick n = Option.get (Sctbench.Registry.by_name n) in
    let slice () =
      [ pick "CS.lazy01_bad"; pick "CS.twostage_bad"; pick "CS.reorder_3_bad" ]
    in
    let suite_with jobs () =
      Sys.opaque_identity
        (Sct_parallel.Pool.with_pool ~jobs (fun pool ->
             Sct_parallel.Suite.run_all ~pool o (slice ())))
    in
    Test.make_grouped ~name:"parallel"
      [
        Test.make ~name:"suite-slice/jobs-1" (Staged.stage (suite_with 1));
        Test.make ~name:"suite-slice/jobs-4" (Staged.stage (suite_with 4));
      ]
  in
  (* one Bechamel test per table/figure generator (on a 3-benchmark slice) *)
  let mini_rows =
    lazy
      (let o =
         { Sct_explore.Techniques.default_options with
           Sct_explore.Techniques.limit = 200 }
       in
       let pick n = Option.get (Sctbench.Registry.by_name n) in
       Sct_report.Run_data.run_all o
         [ pick "CS.lazy01_bad"; pick "CS.twostage_bad"; pick "splash2.fft" ])
  in
  let null_out = Format.make_formatter (fun _ _ _ -> ()) (fun () -> ()) in
  let tables =
    Test.make_grouped ~name:"reports"
      [
        Test.make ~name:"table1"
          (Staged.stage (fun () ->
               Sct_report.Table1.print ~out:null_out Sctbench.Registry.all));
        Test.make ~name:"table2"
          (Staged.stage (fun () ->
               Sct_report.Table2.print ~out:null_out ~limit:200
                 (Lazy.force mini_rows)));
        Test.make ~name:"table3"
          (Staged.stage (fun () ->
               Sct_report.Table3.print ~out:null_out ~limit:200
                 (Lazy.force mini_rows)));
        Test.make ~name:"fig2"
          (Staged.stage (fun () ->
               Sct_report.Venn.print_figure2 ~out:null_out
                 (Lazy.force mini_rows)));
        Test.make ~name:"fig3"
          (Staged.stage (fun () ->
               Sct_report.Figures.print_figure3 ~out:null_out ~limit:200
                 (Lazy.force mini_rows)));
        Test.make ~name:"fig4"
          (Staged.stage (fun () ->
               Sct_report.Figures.print_figure4 ~out:null_out ~limit:200
                 (Lazy.force mini_rows)));
      ]
  in
  Test.make_grouped ~name:"sctbench"
    [ engine; techniques; yield_loops; race; parallel; tables ]

(* Extension ablation 1 (paper §8 future work): partial-order reduction.
   POR needs complete dependence information, so every location is promoted
   and the comparison baseline is plain unbounded DFS under the same
   promotion. *)
let run_por () =
  hr "Extension: partial-order reduction vs. plain DFS (all locations visible)";
  Printf.printf "%-28s %9s %9s %9s %9s %11s %s\n" "benchmark" "DFS" "hb-cls"
    "sleep" "dpor" "dpor+sleep" "(schedules / 'L' = limit; * = bug found)";
  let subset =
    [
      "CS.account_bad";
      "CS.bluetooth_driver_bad";
      "CS.deadlock01_bad";
      "CS.lazy01_bad";
      "CS.reorder_3_bad";
      "CS.stack_bad";
      "CS.twostage_bad";
      "CS.wronglock_3_bad";
      "misc.ctrace-test";
      "splash2.fft";
      "splash2.lu";
    ]
  in
  List.iter
    (fun name ->
      let program = bench_program name in
      let show_d (r : Sct_explore.Dfs.level_result) =
        Printf.sprintf "%s%s"
          (if r.Sct_explore.Dfs.hit_limit then "L"
           else string_of_int r.Sct_explore.Dfs.counted)
          (if r.Sct_explore.Dfs.to_first_bug <> None then "*" else "")
      in
      let show_p (s : Sct_explore.Stats.t) =
        Printf.sprintf "%s%s"
          (if s.Sct_explore.Stats.hit_limit then "L"
           else string_of_int s.Sct_explore.Stats.total)
          (if s.Sct_explore.Stats.to_first_bug <> None then "*" else "")
      in
      let d =
        Sct_explore.Dfs.explore ~promote:promote_all
          ~bound:Sct_explore.Dfs.Unbounded ~limit program
      in
      (* distinct happens-before classes among the DFS schedules: the
         redundancy HB caching / POR removes (paper §7) *)
      let _, hb_classes =
        Sct_explore.Hb_signature.distinct_under_dfs ~promote:promote_all
          ~limit program
      in
      let p mode = Sct_explore.Por.explore ~promote:promote_all ~mode ~limit program in
      Printf.printf "%-28s %9s %9d %9s %9s %11s\n" name (show_d d) hb_classes
        (show_p (p Sct_explore.Por.Sleep))
        (show_p (p Sct_explore.Por.Dpor))
        (show_p (p Sct_explore.Por.Dpor_sleep)))
    subset

(* Extension ablation 2 (paper §7 related work): PCT vs. the naive random
   scheduler, under the same budget and the study's promotion sets. *)
let run_pct () =
  hr "Extension: PCT vs. naive random scheduling";
  Printf.printf "%-28s | %-18s | %-18s\n" "benchmark" "Rand first/buggy"
    "PCT first/buggy";
  let o = options in
  List.iter
    (fun name ->
      let b = Option.get (Sctbench.Registry.by_name name) in
      let detection =
        Sct_explore.Techniques.detect_races o b.Sctbench.Bench.program
      in
      let promote = Sct_race.Promotion.promote detection in
      let show (s : Sct_explore.Stats.t) =
        Printf.sprintf "%s/%d"
          (match s.Sct_explore.Stats.to_first_bug with
          | Some i -> string_of_int i
          | None -> "-")
          s.Sct_explore.Stats.buggy
      in
      let rand =
        Sct_explore.Techniques.run ~promote o Sct_explore.Techniques.Rand
          b.Sctbench.Bench.program
      in
      let pct =
        Sct_explore.Techniques.run ~promote o Sct_explore.Techniques.PCT
          b.Sctbench.Bench.program
      in
      Printf.printf "%-28s | %-18s | %-18s\n" name (show rand) (show pct))
    [
      "CB.stringbuffer-jdk1.4";
      "CS.reorder_4_bad";
      "CS.wronglock_bad";
      "chess.WSQ";
      "inspect.qsort_mt";
      "parsec.ferret";
      "radbench.bug2";
      "radbench.bug4";
      "misc.safestack";
    ]

(* Prefix-batched executor: scheduling steps actually executed vs. the
   classic one-execution-per-schedule driver. The counters are analytic
   (executed + saved = the unbatched driver's steps), so the recorded
   factors are identical for the fork-server and fallback back-ends — the
   section prints which one it measured. CS.reorder_10_bad exhausts the
   schedule limit for all three tree techniques, which is exactly where
   shared prefixes dominate; campaigns that stop at an early bug have no
   prefix to share and would only dilute the gate. *)
let steps_benches = [ "CS.reorder_10_bad" ]

let run_steps () =
  hr "Prefix-batched executor: steps executed vs. per-schedule re-execution";
  let o = { options with Sct_explore.Techniques.prefix_batch = true } in
  Printf.printf "limit %d, backend: %s\n" limit
    (if Sct_explore.Prefix_exec.fork_available () then "fork server"
     else "portable fallback");
  Printf.printf "%-6s %12s %12s %12s %8s\n" "tech" "executed" "saved"
    "unbatched" "factor";
  List.map
    (fun t ->
      let executed, saved =
        List.fold_left
          (fun (e, s) bname ->
            let program = bench_program bname in
            let promote =
              Sct_race.Promotion.promote
                (Sct_explore.Techniques.detect_races o program)
            in
            let st = Sct_explore.Techniques.run ~promote o t program in
            ( e + st.Sct_explore.Stats.steps_executed,
              s + st.Sct_explore.Stats.steps_saved ))
          (0, 0) steps_benches
      in
      let key = String.lowercase_ascii (Sct_explore.Techniques.name t) in
      Printf.printf "%-6s %12d %12d %12d %7.2fx\n%!" key executed saved
        (executed + saved)
        (float_of_int (executed + saved) /. float_of_int (max 1 executed));
      (key, executed, saved))
    [
      Sct_explore.Techniques.DFS;
      Sct_explore.Techniques.IPB;
      Sct_explore.Techniques.IDB;
    ]

(* Wall-clock scaling of the parallel engine: the same suite slice at
   jobs in {1, 2, 4, 8}, checking along the way that every row is identical
   to the sequential run (the engine's determinism guarantee). *)
let run_jobs () =
  hr "Parallel engine: jobs sweep (wall-clock, CS suite)";
  let benches =
    List.filter
      (fun (b : Sctbench.Bench.t) ->
        b.Sctbench.Bench.suite = Sctbench.Bench.CS)
      Sctbench.Registry.all
  in
  let o =
    { options with Sct_explore.Techniques.limit = min limit 1_000 }
  in
  let time jobs =
    let t0 = Unix.gettimeofday () in
    let rows =
      Sct_parallel.Pool.with_pool ~jobs (fun pool ->
          Sct_parallel.Suite.run_all ~pool o benches)
    in
    (rows, Unix.gettimeofday () -. t0)
  in
  let rows_equal a b =
    List.for_all2
      (fun (a : Sct_report.Run_data.row) (b : Sct_report.Run_data.row) ->
        a.Sct_report.Run_data.racy_locations
        = b.Sct_report.Run_data.racy_locations
        && List.for_all2
             (fun (t, s) (t', s') ->
               t = t' && Sct_explore.Stats.equal s s')
             a.Sct_report.Run_data.results b.Sct_report.Run_data.results)
      a b
  in
  Printf.printf "limit %d, %d benchmarks\n" o.Sct_explore.Techniques.limit
    (List.length benches);
  Printf.printf "%6s %10s %9s  %s\n" "jobs" "seconds" "speedup" "rows";
  let base_rows, base_dt = time 1 in
  Printf.printf "%6d %10.2f %8.2fx  %s\n%!" 1 base_dt 1.0 "baseline";
  (1, base_dt, 1.0, true)
  :: List.map
       (fun jobs ->
         let rows, dt = time jobs in
         let identical = rows_equal base_rows rows in
         Printf.printf "%6d %10.2f %8.2fx  %s\n%!" jobs dt (base_dt /. dt)
           (if identical then "identical" else "DIFFERENT (bug!)");
         (jobs, dt, base_dt /. dt, identical))
       [ 2; 4; 8 ]

let run_perf () =
  hr "Bechamel timings";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 500) ()
  in
  let raw = Benchmark.all cfg instances (perf_tests ()) in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name result acc ->
        match Analyze.OLS.estimates result with
        | Some [ est ] -> (name, est) :: acc
        | _ -> (name, nan) :: acc)
      results []
  in
  let rows = List.sort compare rows in
  List.iter
    (fun (name, est) ->
      if est >= 1e6 then Printf.printf "%-55s %10.2f ms/run\n" name (est /. 1e6)
      else if est >= 1e3 then
        Printf.printf "%-55s %10.2f us/run\n" name (est /. 1e3)
      else Printf.printf "%-55s %10.1f ns/run\n" name est)
    rows;
  rows

(* --- machine-readable perf trajectory (BENCH_engine.json) --- *)

(* Steps per execution under the deterministic scheduler: converts Bechamel
   ns/run estimates into the headline steps/sec numbers. *)
let steps_per_exec program =
  (Sct_core.Runtime.exec ~promote:promote_all ~record_decisions:false
     ~scheduler:rr_scheduler program)
    .Sct_core.Runtime.r_steps

let engine_benchmarks =
  [
    ("rr-execution/twostage", "CS.twostage_bad");
    ("rr-execution/wsq", "chess.WSQ");
    ("rr-execution/spinwait", "yield.spinwait_bad");
  ]

let find_perf perf_rows suffix =
  List.find_opt (fun (n, _) -> String.ends_with ~suffix n) perf_rows
  |> Option.map snd

let bench_json ~perf_rows ~jobs_sweep ~steps_rows =
  let open Sct_store.Json in
  let ns_int f = max 1 (int_of_float (Float.round f)) in
  let engine =
    List.filter_map
      (fun (key, bench) ->
        match find_perf perf_rows key with
        | None -> None
        | Some ns ->
            let steps = steps_per_exec (bench_program bench) in
            Some
              ( key,
                Obj
                  [
                    ("ns_per_run", Int (ns_int ns));
                    ("steps_per_exec", Int steps);
                    ( "steps_per_sec",
                      Int (int_of_float (float_of_int steps *. 1e9 /. ns)) );
                    ("execs_per_sec", Int (int_of_float (1e9 /. ns)));
                  ] ))
      engine_benchmarks
  in
  let perf =
    List.map (fun (name, ns) -> (name, Int (ns_int ns))) perf_rows
  in
  let sections =
    List.map
      (fun (name, dt) -> (name, Int (int_of_float (Float.round (dt *. 1e3)))))
      !section_timings
  in
  let sweep =
    List.map
      (fun (jobs, dt, speedup, identical) ->
        Obj
          [
            ("jobs", Int jobs);
            ("ms", Int (int_of_float (Float.round (dt *. 1e3))));
            ("speedup_x100", Int (int_of_float (Float.round (speedup *. 100.))));
            ("identical", Bool identical);
          ])
      jobs_sweep
  in
  let steps =
    List.map
      (fun (key, executed, saved) ->
        ( key,
          Obj
            [
              ("steps_executed", Int executed);
              ("steps_saved", Int saved);
              ("steps_unbatched", Int (executed + saved));
              ("factor_x100", Int ((executed + saved) * 100 / max 1 executed));
            ] ))
      steps_rows
  in
  Obj
    [
      ("schema", Str "sctbench-bench-engine/v2");
      ("limit", Int limit);
      ("seed", Int seed);
      ("jobs", Int jobs);
      ("engine", Obj engine);
      ("perf_ns", Obj perf);
      ("sections_ms", Obj sections);
      ("jobs_sweep", Arr sweep);
      ("steps_benches", Arr (List.map (fun n -> Str n) steps_benches));
      ("steps", Obj steps);
    ]

let write_out path json =
  let oc = open_out path in
  output_string oc (Sct_store.Json.to_string json);
  output_char oc '\n';
  close_out oc;
  Printf.printf "\nwrote %s\n" path

(* Fail (exit 1) if any engine benchmark regressed more than
   [--baseline-factor] (default 2x) against the committed baseline's
   ns_per_run, or if the prefix-batched executor's steps cut dropped below
   the baseline's per-technique [min_factor_x100] floor. *)
let check_baseline ~perf_rows ~steps_rows path =
  let doc =
    In_channel.with_open_bin path In_channel.input_all
    |> Sct_store.Json.of_string
  in
  let entries =
    match Sct_store.Json.member "engine" doc with
    | Some (Sct_store.Json.Obj fields) -> fields
    | _ -> failwith (path ^ ": no \"engine\" object")
  in
  let failed = ref false in
  List.iter
    (fun (key, entry) ->
      match Sct_store.Json.member "ns_per_run" entry with
      | Some (Sct_store.Json.Int base_ns) -> (
          match find_perf perf_rows key with
          | None ->
              Printf.printf "baseline check: %s not measured\n" key;
              failed := true
          | Some ns ->
              let ratio = ns /. float_of_int base_ns in
              Printf.printf "baseline check: %-30s %10.0f ns vs %8d ns (%.2fx)\n"
                key ns base_ns ratio;
              if ratio > baseline_factor then begin
                Printf.printf
                  "  REGRESSION: more than %gx slower than baseline\n"
                  baseline_factor;
                failed := true
              end)
      | _ -> ())
    entries;
  (match Sct_store.Json.member "steps" doc with
  | Some (Sct_store.Json.Obj floors) ->
      List.iter
        (fun (key, entry) ->
          match Sct_store.Json.member "min_factor_x100" entry with
          | Some (Sct_store.Json.Int floor) -> (
              match
                List.find_opt (fun (k, _, _) -> k = key) steps_rows
              with
              | None ->
                  Printf.printf "baseline check: steps/%s not measured\n" key;
                  failed := true
              | Some (_, executed, saved) ->
                  let factor_x100 =
                    (executed + saved) * 100 / max 1 executed
                  in
                  Printf.printf
                    "baseline check: steps/%-24s %d.%02dx cut (floor %d.%02dx)\n"
                    key (factor_x100 / 100) (factor_x100 mod 100) (floor / 100)
                    (floor mod 100);
                  if factor_x100 < floor then begin
                    Printf.printf
                      "  REGRESSION: the prefix-batched steps cut fell below \
                       the floor\n";
                    failed := true
                  end)
          | _ -> ())
        floors
  | _ -> ());
  if !failed then begin
    Printf.printf "baseline check FAILED\n";
    exit 1
  end
  else Printf.printf "baseline check passed\n"

let () =
  Printf.printf
    "SCTBench schedule-bounding study — limit %d terminal schedules per \
     technique, seed %d\n"
    limit seed;
  if wants "table1" then
    timed "table1" (fun () ->
        hr "Table 1";
        Sct_report.Table1.print Sctbench.Registry.all);
  let rows_needed =
    List.exists wants [ "table2"; "table3"; "fig2"; "fig3"; "fig4" ]
  in
  if rows_needed then begin
    let rows = timed "study-rows" (fun () -> Lazy.force study_rows) in
    if wants "table3" then
      timed "table3" (fun () ->
          hr "Table 3";
          Sct_report.Table3.print ~limit rows;
          Sct_report.Table3.print_agreement rows);
    if wants "table2" then
      timed "table2" (fun () ->
          hr "Table 2";
          Sct_report.Table2.print ~limit rows);
    if wants "fig2" then
      timed "fig2" (fun () ->
          hr "Figure 2";
          Sct_report.Venn.print_figure2 rows);
    if wants "fig3" then
      timed "fig3" (fun () ->
          hr "Figure 3";
          Sct_report.Figures.print_figure3 ~limit rows);
    if wants "fig4" then
      timed "fig4" (fun () ->
          hr "Figure 4";
          Sct_report.Figures.print_figure4 ~limit rows)
  end;
  if wants "por" then timed "por" run_por;
  if wants "pct" then timed "pct" run_pct;
  (* steps before jobs: the sweep spawns worker domains, after which the
     runtime refuses [Unix.fork] and the batched executor measures its
     fallback (same counters, but the fork server is the shipped path) *)
  let steps_rows = if wants "steps" then timed "steps" run_steps else [] in
  let jobs_sweep =
    if wants "jobs" then timed "jobs" run_jobs else []
  in
  let perf_rows = if wants "perf" then timed "perf" run_perf else [] in
  (match out_file with
  | None -> ()
  | Some path -> write_out path (bench_json ~perf_rows ~jobs_sweep ~steps_rows));
  match baseline_file with
  | None -> ()
  | Some path -> check_baseline ~perf_rows ~steps_rows path
