(* Command-line front-end: run SCTBench benchmarks under the study's
   techniques and regenerate the paper's tables and figures. *)

open Cmdliner

(* Integer flags are checked at the boundary: a value below [min] is a
   command-line error (exit 124, naming the option), not an input for the
   engine to crash on or to mis-count. *)
let int_at_least min =
  let parse s =
    match Arg.conv_parser Arg.int s with
    | Ok n when n < min ->
        Error (`Msg (Printf.sprintf "%d is below the minimum %d" n min))
    | result -> result
  in
  Arg.conv ~docv:"N" (parse, Arg.conv_printer Arg.int)

let non_negative = int_at_least 0
let positive = int_at_least 1

let limit_t =
  let doc =
    "Schedule limit per technique (the paper uses 10000); at least 0."
  in
  Arg.(value & opt non_negative 10_000 & info [ "limit" ] ~docv:"N" ~doc)

let seed_t =
  let doc = "Random seed for Rand/PCT/Maple and race detection." in
  Arg.(value & opt int 0 & info [ "seed" ] ~docv:"SEED" ~doc)

let suite_names =
  String.concat ", "
    (List.map Sctbench.Bench.suite_name
       Sctbench.Bench.[ CB; CHESS; CS; Inspect; Misc; Parsec; Radbench; Splash2; Yield; Corpus ])

(* Suite names are matched as [Bench.suite_of_name] matches them, case
   aside; an unknown one is a command-line error listing the valid ones. *)
let suite_conv =
  let parse s =
    match Sctbench.Bench.suite_of_name s with
    | Some suite -> Ok suite
    | None ->
        Error
          (`Msg (Printf.sprintf "unknown suite %S, expected one of %s" s suite_names))
  in
  let print ppf suite =
    Format.pp_print_string ppf (Sctbench.Bench.suite_name suite)
  in
  Arg.conv ~docv:"SUITE" (parse, print)

let suite_t =
  let doc = Printf.sprintf "Restrict to one suite (%s)." suite_names in
  Arg.(value & opt (some suite_conv) None & info [ "suite" ] ~docv:"SUITE" ~doc)

let ids_t =
  let doc =
    "Restrict to specific benchmark ids; an id that selects no benchmark of \
     the selection is an error."
  in
  Arg.(value & opt_all int [] & info [ "id" ] ~docv:"ID" ~doc)

(* -t is parsed once, here, for every command: an unknown name or a flag
   that names nothing is a command-line error listing the valid names. *)
let techniques_term ~default ~default_doc =
  let doc =
    "Techniques to run (ipb, idb, dfs, rand, pct, maple, surw, fair, \
     length, ivb, itb); repeatable and/or comma-separated, e.g. $(b,-t \
     ipb,rand); default: " ^ default_doc ^ "."
  in
  let parse specs =
    match Sct_explore.Techniques.parse_list ~default specs with
    | Ok ts -> `Ok ts
    | Error msg -> `Error (true, "option '--technique': " ^ msg)
  in
  Term.(
    ret
      (const parse
      $ Arg.(
          value & opt_all string []
          & info [ "technique"; "t" ] ~docv:"TECH" ~doc)))

let techniques_t =
  techniques_term ~default:Sct_explore.Techniques.all_paper
    ~default_doc:"the paper's five"

let all_techniques_t =
  techniques_term ~default:Sct_explore.Techniques.all
    ~default_doc:"all eleven"

(* A wall-clock budget is a positive finite number of seconds: a zero or
   negative one would stop every campaign after one schedule, and nan would
   never stop one. *)
let positive_seconds =
  let parse s =
    match Arg.conv_parser Arg.float s with
    | Ok f when Float.is_finite f && f > 0. -> Ok f
    | Ok _ ->
        Error (`Msg (Printf.sprintf "%s is not a positive finite number" s))
    | Error _ as e -> e
  in
  Arg.conv ~docv:"SECONDS" (parse, Arg.conv_printer Arg.float)

let time_limit_t =
  let doc =
    "Wall-clock budget in seconds per technique campaign, a positive finite \
     number; the campaign stops at the first terminal schedule past the \
     deadline (recorded as hit_deadline, distinct from the schedule-limit \
     stop). Unset: no deadline, fully deterministic runs."
  in
  Arg.(
    value
    & opt (some positive_seconds) None
    & info [ "time-limit" ] ~docv:"SECONDS" ~doc)

let jobs_t =
  let doc =
    "Domains that run the work, the calling one included (0 = one per \
     recommended domain; at least 0). Results are identical for every \
     value."
  in
  Arg.(value & opt non_negative 0 & info [ "jobs"; "j" ] ~docv:"N" ~doc)

let prefix_batch_t =
  let doc =
    "Count, for DFS/IPB/IDB, the schedule-prefix steps that batches of \
     sibling continuations would share (steps= and saved=). The counts are \
     analytic: the run is the plain walk, no faster and no slower. Every \
     table and every stored journal stays byte-identical apart from those \
     two counters."
  in
  Arg.(value & flag & info [ "prefix-batch" ] ~doc)

let por_mode_conv =
  let parse s =
    Result.map_error (fun m -> `Msg m) (Sct_explore.Por.parse_mode s)
  in
  let print ppf m = Format.pp_print_string ppf (Sct_explore.Por.mode_name m) in
  Arg.conv ~docv:"MODE" (parse, print)

let por_t =
  let doc =
    "Compose DFS/IPB/IDB with bounded partial-order reduction: $(docv) is \
     $(b,sleep), $(b,dpor) or $(b,dpor+sleep). Reduced cells explore fewer \
     schedules to the same bugs (sleep-pruned runs are reported as \
     por_pruned); POR cells always run unbatched. Other techniques are \
     unaffected."
  in
  Arg.(
    value & opt (some por_mode_conv) None & info [ "por" ] ~docv:"MODE" ~doc)

let fair_bound_t =
  let doc =
    "Yield-difference bound for the $(b,fair) technique: a schedule is cut \
     once a yielding thread is $(docv) yields ahead of the least-yielded \
     live thread (dejafu's sctFairBound); at least 0. Other techniques \
     ignore it."
  in
  Arg.(
    value
    & opt non_negative Sct_explore.Techniques.default_options.fair_bound
    & info [ "fair-bound" ] ~docv:"N" ~doc)

let length_bound_t =
  let doc =
    "Schedule-length bound in scheduling points for the $(b,length) \
     technique (dejafu's sctLengthBound); at least 0. Other techniques \
     ignore it."
  in
  Arg.(
    value
    & opt non_negative Sct_explore.Techniques.default_options.length_bound
    & info [ "length-bound" ] ~docv:"N" ~doc)

(* The exploration options every running command reads, built once.
   --jobs is not among them: it sizes the pool, and results are identical
   for every value. *)
let options_t =
  let options limit seed prefix_batch por time_limit fair_bound length_bound
      =
    {
      Sct_explore.Techniques.default_options with
      Sct_explore.Techniques.limit;
      seed;
      time_limit;
      prefix_batch;
      por;
      fair_bound;
      length_bound;
    }
  in
  Term.(
    const options $ limit_t $ seed_t $ prefix_batch_t $ por_t $ time_limit_t
    $ fair_bound_t $ length_bound_t)

let store_t =
  let doc =
    "Persist per-cell results and bug-witness artifacts to $(docv) \
     (journal + artifacts); see also $(b,--resume)."
  in
  Arg.(value & opt (some string) None & info [ "store" ] ~docv:"DIR" ~doc)

let resume_t =
  let doc =
    "Reuse the completed cells journalled in the $(b,--store) directory and \
     re-execute only the incomplete ones. Without this flag a non-empty \
     store directory is refused."
  in
  Arg.(value & flag & info [ "resume" ] ~doc)

(* Open the study store, enforcing the --store/--resume contract. *)
let open_store ~resume store =
  match store with
  | None ->
      if resume then begin
        prerr_endline "--resume requires --store DIR";
        exit 1
      end;
      None
  | Some dir ->
      let db = Sct_store.Db.open_ ~dir in
      if (not resume) && not (Sct_store.Db.is_empty db) then begin
        Printf.eprintf
          "store %s already holds %d completed cells; pass --resume to \
           continue it, or point --store at a fresh directory\n"
          dir (Sct_store.Db.size db);
        exit 1
      end;
      Some db

let close_store = Option.iter Sct_store.Db.close

(* race detection reads the seed, and the defaults for the rest *)
let detection_options seed =
  { Sct_explore.Techniques.default_options with Sct_explore.Techniques.seed }

let resolve_jobs jobs =
  if jobs <= 0 then Sct_parallel.Pool.default_jobs () else jobs

let corpus_t =
  let doc =
    "Load a promoted corpus directory (see the $(b,corpus) command group) \
     and register its entries as extension benchmarks in the $(b,corpus) \
     suite before selection."
  in
  Arg.(value & opt (some string) None & info [ "corpus" ] ~docv:"DIR" ~doc)

let load_corpus = function
  | None -> ()
  | Some dir -> (
      match Sct_corpus.Suite_io.register ~dir () with
      | Ok benches ->
          Printf.eprintf "corpus: registered %d extension benchmark(s) from %s\n%!"
            (List.length benches) dir
      | Error msg ->
          prerr_endline msg;
          exit 1)

(* The benchmarks a study or campaign runs: the corpus is registered
   first, then --suite and --id narrow the registry. An id that selects no
   benchmark of the selection is a command-line error (exit 124), not an
   empty study. *)
let benches_t =
  let select corpus suite ids =
    load_corpus corpus;
    let all =
      List.filter
        (fun (b : Sctbench.Bench.t) ->
          match suite with None -> true | Some s -> b.Sctbench.Bench.suite = s)
        (Sctbench.Registry.full ())
    in
    let selects id =
      List.exists (fun (b : Sctbench.Bench.t) -> b.Sctbench.Bench.id = id) all
    in
    match List.find_opt (fun id -> not (selects id)) ids with
    | Some id ->
        `Error
          ( true,
            Printf.sprintf "option '--id': no benchmark%s has id %d"
              (match suite with
              | None -> ""
              | Some s -> " of suite " ^ Sctbench.Bench.suite_name s)
              id )
    | None when ids = [] -> `Ok all
    | None ->
        `Ok
          (List.filter
             (fun (b : Sctbench.Bench.t) -> List.mem b.Sctbench.Bench.id ids)
             all)
  in
  Term.(ret (const select $ corpus_t $ suite_t $ ids_t))

let progress (b : Sctbench.Bench.t) =
  Printf.eprintf "[%2d] %s...\n%!" b.Sctbench.Bench.id b.Sctbench.Bench.name

(* list *)
let list_cmd =
  let run corpus =
    load_corpus corpus;
    List.iter
      (fun (b : Sctbench.Bench.t) ->
        Printf.printf "%2d  %-28s %s\n" b.Sctbench.Bench.id
          b.Sctbench.Bench.name b.Sctbench.Bench.description)
      (Sctbench.Registry.full ())
  in
  Cmd.v
    (Cmd.info "list"
       ~doc:
         "List the 55 built-in benchmarks — the 52 of SCTBench plus the \
          yield-loop family (plus any $(b,--corpus) extensions).")
    Term.(const run $ corpus_t)

(* detect *)
let detect_cmd =
  let run seed name =
    match Sctbench.Registry.by_name name with
    | None -> prerr_endline ("unknown benchmark: " ^ name); exit 1
    | Some b ->
        let d =
          Sct_explore.Techniques.detect_races (detection_options seed)
            b.Sctbench.Bench.program
        in
        Printf.printf "racy locations (%d):\n" (List.length d.Sct_race.Promotion.racy);
        List.iter (fun l -> Printf.printf "  %s\n" l) d.Sct_race.Promotion.racy
  in
  let name_t = Arg.(required & pos 0 (some string) None & info [] ~docv:"NAME") in
  Cmd.v
    (Cmd.info "detect" ~doc:"Run the data-race detection phase on one benchmark.")
    Term.(const run $ seed_t $ name_t)

(* run one benchmark *)
let run_cmd =
  let run o jobs techniques store resume name =
    match Sctbench.Registry.by_name name with
    | None -> prerr_endline ("unknown benchmark: " ^ name); exit 1
    | Some b ->
        let store = open_store ~resume store in
        let row =
          Sct_parallel.Pool.with_pool ~jobs:(resolve_jobs jobs)
            (fun pool ->
              Sct_report.Run_data.run_benchmark ?store ~techniques
                ~fan_out:(Sct_parallel.Drivers.run_seeds ~pool) o b)
        in
        close_store store;
        Printf.printf "%s (%d racy locations)\n" b.Sctbench.Bench.name
          row.Sct_report.Run_data.racy_locations;
        List.iter
          (fun (t, s) ->
            Format.printf "  %-8s %a@."
              (Sct_explore.Techniques.name t)
              Sct_explore.Stats.pp s;
            (match Sct_explore.Stats.distinct s with
            | Some d ->
                Format.printf "           distinct schedules: %d of %d@." d
                  s.Sct_explore.Stats.total
            | None -> ());
            (match Sct_explore.Guarantee.of_stats s with
            | Sct_explore.Guarantee.None_ -> ()
            | g ->
                Format.printf "           coverage: %a@."
                  Sct_explore.Guarantee.pp g);
            match s.Sct_explore.Stats.first_bug with
            | Some w ->
                Format.printf "           bug: %a (pc=%d dc=%d, %d steps)@."
                  Sct_core.Outcome.pp_bug w.Sct_explore.Stats.w_bug
                  w.Sct_explore.Stats.w_pc w.Sct_explore.Stats.w_dc
                  (Sct_core.Schedule.length w.Sct_explore.Stats.w_schedule)
            | None -> ())
          row.Sct_report.Run_data.results
  in
  let name_t = Arg.(required & pos 0 (some string) None & info [] ~docv:"NAME") in
  Cmd.v
    (Cmd.info "run" ~doc:"Run one benchmark under the selected techniques.")
    Term.(
      const run $ options_t $ jobs_t $ techniques_t $ store_t $ resume_t
      $ name_t)

let with_bench name f =
  match Sctbench.Registry.by_name name with
  | None ->
      prerr_endline ("unknown benchmark: " ^ name);
      exit 1
  | Some b -> f b

let detection_promote seed (b : Sctbench.Bench.t) =
  Sct_race.Promotion.promote
    (Sct_explore.Techniques.detect_races (detection_options seed)
       b.Sctbench.Bench.program)

(* benchmark details *)
let info_cmd =
  let run name =
    with_bench name (fun b ->
        let p = b.Sctbench.Bench.paper in
        Printf.printf "%s (id %d, suite %s)\n\n%s\n\n" b.Sctbench.Bench.name
          b.Sctbench.Bench.id
          (Sctbench.Bench.suite_name b.Sctbench.Bench.suite)
          b.Sctbench.Bench.description;
        let opt = function None -> "not found" | Some i -> "bound " ^ string_of_int i in
        Printf.printf "paper Table 3 row:\n";
        Printf.printf "  threads %d, max enabled %d\n" p.Sctbench.Bench.p_threads
          p.Sctbench.Bench.p_max_enabled;
        Printf.printf "  IPB %s; IDB %s; DFS %s; Rand %s; MapleAlg %s\n"
          (opt p.Sctbench.Bench.p_ipb_bound)
          (opt p.Sctbench.Bench.p_idb_bound)
          (if p.Sctbench.Bench.p_dfs_found then "found" else "not found")
          (if p.Sctbench.Bench.p_rand_found then "found" else "not found")
          (if p.Sctbench.Bench.p_maple_found then "found" else "not found");
        match (b.Sctbench.Bench.expect_ipb, b.Sctbench.Bench.expect_idb) with
        | None, None -> ()
        | ipb, idb ->
            Printf.printf "expected bounds in this model: IPB %s, IDB %s\n"
              (match ipb with Some i -> string_of_int i | None -> "-")
              (match idb with Some i -> string_of_int i | None -> "-"))
  in
  let name_t = Arg.(required & pos 0 (some string) None & info [] ~docv:"NAME") in
  Cmd.v
    (Cmd.info "info" ~doc:"Describe a benchmark and its paper row.")
    Term.(const run $ name_t)

let schedule_file_t =
  let doc =
    "Read the schedule from $(docv) instead of the command line: lines \
     starting with # and blank lines are ignored, the remaining line uses \
     the inline syntax. Accepts recorded $(b,.sched) witness artifacts."
  in
  Arg.(value & opt (some string) None & info [ "file" ] ~docv:"PATH" ~doc)

let schedule_of_spec ~what trace file =
  match (trace, file) with
  | Some t, None -> Sct_explore.Replay.parse t
  | None, Some p -> Sct_store.Artifact.schedule_of_file p
  | Some _, Some _ ->
      prerr_endline ("give either an inline " ^ what ^ " or --file, not both");
      exit 1
  | None, None ->
      prerr_endline ("a " ^ what ^ " is required: inline or via --file");
      exit 1

(* replay a schedule *)
let replay_cmd =
  let run seed name trace file =
    with_bench name (fun b ->
        let schedule = schedule_of_spec ~what:"schedule" trace file in
        let promote = detection_promote seed b in
        match
          Sct_explore.Replay.replay ~promote ~schedule b.Sctbench.Bench.program
        with
        | None -> print_endline "schedule is infeasible for this program"
        | Some r ->
            Format.printf "outcome: %a@." Sct_core.Outcome.pp
              r.Sct_core.Runtime.r_outcome;
            Format.printf "executed schedule (pc=%d dc=%d): %a@."
              r.Sct_core.Runtime.r_pc r.Sct_core.Runtime.r_dc
              Sct_core.Schedule.pp r.Sct_core.Runtime.r_schedule)
  in
  let name_t = Arg.(required & pos 0 (some string) None & info [] ~docv:"NAME") in
  let trace_t =
    Arg.(
      value
      & pos 1 (some string) None
      & info [] ~docv:"SCHEDULE" ~doc:"Comma-separated thread ids, e.g. 0,0,1,2.")
  in
  Cmd.v
    (Cmd.info "replay" ~doc:"Replay a schedule against a benchmark.")
    Term.(const run $ seed_t $ name_t $ trace_t $ schedule_file_t)

(* find a bug with the random scheduler (or take a recorded witness), then
   simplify its trace *)
let minimize_cmd =
  let simplify b promote schedule =
    match
      Sct_explore.Simplify.minimize ~promote ~program:b.Sctbench.Bench.program
        schedule
    with
    | None -> print_endline "witness did not replay as buggy"
    | Some m ->
        Format.printf "simplified witness: pc=%d dc=%d, %d steps (%d rounds)@."
          m.Sct_explore.Simplify.result.Sct_core.Runtime.r_pc
          m.Sct_explore.Simplify.result.Sct_core.Runtime.r_dc
          (Sct_core.Schedule.length m.Sct_explore.Simplify.schedule)
          m.Sct_explore.Simplify.rounds;
        Format.printf "schedule: %a@." Sct_core.Schedule.pp
          m.Sct_explore.Simplify.schedule
  in
  let run limit seed name file =
    with_bench name (fun b ->
        let promote = detection_promote seed b in
        match file with
        | Some path ->
            (* a recorded witness: skip the random search *)
            let schedule = Sct_store.Artifact.schedule_of_file path in
            Format.printf "witness from %s: %d steps@." path
              (Sct_core.Schedule.length schedule);
            simplify b promote schedule
        | None -> (
            let s =
              Sct_explore.Seeded.explore ~promote ~stop_on_bug:true ~seed
                ~runs:limit Sct_explore.Seeded.rand b.Sctbench.Bench.program
            in
            match s.Sct_explore.Stats.first_bug with
            | None -> print_endline "no bug found by the random scheduler"
            | Some w ->
                Format.printf "random witness: pc=%d dc=%d, %d steps@."
                  w.Sct_explore.Stats.w_pc w.Sct_explore.Stats.w_dc
                  (Sct_core.Schedule.length w.Sct_explore.Stats.w_schedule);
                simplify b promote w.Sct_explore.Stats.w_schedule))
  in
  let name_t = Arg.(required & pos 0 (some string) None & info [] ~docv:"NAME") in
  Cmd.v
    (Cmd.info "minimize"
       ~doc:
         "Find a bug with the random scheduler (or start from a recorded \
          witness via --file) and simplify the trace to few preemptions.")
    Term.(const run $ limit_t $ seed_t $ name_t $ schedule_file_t)

(* partial-order reduction *)
let por_cmd =
  let run limit name mode =
    with_bench name (fun b ->
        (* POR needs full dependence information: promote everything *)
        let s =
          Sct_explore.Por.explore ~promote:(fun _ -> true) ~mode ~limit
            b.Sctbench.Bench.program
        in
        Printf.printf
          "%s: %d schedules (%d sleep-pruned, %d executions), %d buggy, \
           complete=%b%s\n"
          b.Sctbench.Bench.name s.Sct_explore.Stats.total
          s.Sct_explore.Stats.por_pruned s.Sct_explore.Stats.executions
          s.Sct_explore.Stats.buggy s.Sct_explore.Stats.complete
          (match s.Sct_explore.Stats.to_first_bug with
          | Some i -> Printf.sprintf ", first bug at %d" i
          | None -> ""))
  in
  let name_t = Arg.(required & pos 0 (some string) None & info [] ~docv:"NAME") in
  let mode_t =
    Arg.(
      value
      & opt por_mode_conv Sct_explore.Por.Dpor_sleep
      & info [ "mode" ] ~docv:"MODE" ~doc:"sleep, dpor, or dpor+sleep (alias: both).")
  in
  Cmd.v
    (Cmd.info "por"
       ~doc:
         "Explore a benchmark with partial-order reduction (unbounded, all \
          locations visible).")
    Term.(const run $ limit_t $ name_t $ mode_t)

(* the full study: tables and figures *)
let study what o jobs benches techniques store resume =
  let limit = o.Sct_explore.Techniques.limit in
  match what with
  | `Table1 -> Sct_report.Table1.print benches
  | (`Table2 | `Table3 | `Fig2 | `Fig3 | `Fig4 | `Agreement | `Csv) as what ->
      let store = open_store ~resume store in
      let rows =
        Sct_parallel.Pool.with_pool ~jobs:(resolve_jobs jobs) (fun pool ->
            Sct_parallel.Suite.run_all ~pool ?store ~techniques ~progress o
              benches)
      in
      close_store store;
      (match what with
      | `Table2 -> Sct_report.Table2.print ~limit rows
      | `Table3 ->
          Sct_report.Table3.print ~limit rows;
          Sct_report.Table3.print_agreement rows
      | `Fig2 -> Sct_report.Venn.print_figure2 rows
      | `Fig3 -> Sct_report.Figures.print_figure3 ~limit rows
      | `Fig4 -> Sct_report.Figures.print_figure4 ~limit rows
      | `Agreement -> Sct_report.Table3.print_agreement rows
      | `Csv -> Sct_report.Csv.table3 ~limit rows)

let study_cmd name what doc =
  Cmd.v (Cmd.info name ~doc)
    Term.(
      const (study what) $ options_t $ jobs_t $ benches_t $ techniques_t
      $ store_t $ resume_t)

let vocab_conv =
  let parse s =
    match Sct_fuzz.Gen.vocab_of_name s with
    | Some v -> Ok v
    | None ->
        Error
          (`Msg
             (Printf.sprintf "unknown vocabulary %S, expected one of classic, \
                              async, full" s))
  in
  let print ppf v = Format.pp_print_string ppf (Sct_fuzz.Gen.vocab_name v) in
  Arg.conv ~docv:"VOCAB" (parse, print)

(* self-testing fuzz: generated programs under the differential oracle *)
let fuzz_cmd =
  let count_t =
    let doc = "Number of programs to generate and check; at least 0." in
    Arg.(value & opt non_negative 200 & info [ "count" ] ~docv:"N" ~doc)
  in
  let fuzz_limit_t =
    let doc =
      "Schedule budget per technique campaign and program; at least 0."
    in
    Arg.(value & opt non_negative 500 & info [ "limit" ] ~docv:"N" ~doc)
  in
  let max_steps_t =
    let doc = "Per-execution step budget (live-lock guard); at least 1." in
    Arg.(value & opt positive 5_000 & info [ "max-steps" ] ~docv:"N" ~doc)
  in
  let fuzz_store_t =
    let doc =
      "Write shrunk counterexamples as replayable artifacts under \
       $(docv)/fuzz."
    in
    Arg.(value & opt (some string) None & info [ "store" ] ~docv:"DIR" ~doc)
  in
  let vocab_t =
    let doc =
      "Generator vocabulary: $(b,classic) (the original pthread-style \
       statements), $(b,async) (biased toward futures, bounded channels \
       and the work-queue idiom) or $(b,full) (both, evenly mixed)."
    in
    Arg.(
      value
      & opt vocab_conv Sct_fuzz.Gen.Classic
      & info [ "vocab" ] ~docv:"VOCAB" ~doc)
  in
  let run seed count limit max_steps jobs prefix_batch por store techniques
      vocab =
    let cfg =
      { Sct_fuzz.Oracle.limit; max_steps; race_runs = 5; prefix_batch; por;
        techniques }
    in
    (* program i is a pure function of (seed, i): shard across the pool,
       reassemble in index order — output is identical for every --jobs *)
    let reports =
      Sct_parallel.Pool.with_pool ~jobs:(resolve_jobs jobs) (fun pool ->
          List.init count (fun i ->
              Sct_parallel.Pool.submit pool (fun () ->
                  Sct_fuzz.Harness.one_program ~vocab ~cfg ~campaign_seed:seed
                    i))
          |> List.map Sct_parallel.Pool.await)
    in
    let summary = Sct_fuzz.Harness.summarize reports in
    List.iter
      (fun cx ->
        Format.printf "%a@." Sct_fuzz.Harness.pp_counterexample cx;
        match store with
        | Some dir ->
            let path =
              Sct_fuzz.Harness.dump ~dir:(Filename.concat dir "fuzz") cx
            in
            Printf.printf "counterexample written to %s\n" path
        | None -> ())
      summary.Sct_fuzz.Harness.s_counterexamples;
    Printf.printf
      "fuzz: %d programs (seed %d, limit %d): %d invariant violation(s)\n"
      summary.Sct_fuzz.Harness.s_programs seed limit
      (List.length summary.Sct_fuzz.Harness.s_counterexamples);
    if summary.Sct_fuzz.Harness.s_counterexamples <> [] then exit 1
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Generate random concurrent programs and check the \
          cross-technique differential invariants (inclusions, POR \
          equivalence, witness replay, schedule-count algebra, \
          shard-merge determinism); failing programs are shrunk to \
          minimal counterexamples.")
    Term.(
      const run $ seed_t $ count_t $ fuzz_limit_t $ max_steps_t $ jobs_t
      $ prefix_batch_t $ por_t $ fuzz_store_t $ all_techniques_t $ vocab_t)

(* the corpus factory: mine, promote, stats, run *)
let corpus_cmd =
  let module Mine = Sct_corpus.Mine in
  let module Manifest = Sct_corpus.Manifest in
  let count_t =
    let doc = "Number of programs to generate and survey; at least 0." in
    Arg.(
      value
      & opt non_negative Mine.default_config.Mine.count
      & info [ "count" ] ~docv:"N" ~doc)
  in
  let mine_limit_t =
    let doc = "Schedule budget per technique and program; at least 0." in
    Arg.(
      value
      & opt non_negative Mine.default_config.Mine.limit
      & info [ "limit" ] ~docv:"N" ~doc)
  in
  let max_steps_t =
    let doc = "Per-execution step budget (live-lock guard); at least 1." in
    Arg.(
      value
      & opt positive Mine.default_config.Mine.max_steps
      & info [ "max-steps" ] ~docv:"N" ~doc)
  in
  let vocab_t =
    let doc = "Generator vocabulary: classic, async or full." in
    Arg.(
      value
      & opt vocab_conv Mine.default_config.Mine.vocab
      & info [ "vocab" ] ~docv:"VOCAB" ~doc)
  in
  let shrink_checks_t =
    let doc = "Survey budget per keeper shrink; at least 0." in
    Arg.(
      value
      & opt non_negative Mine.default_config.Mine.shrink_checks
      & info [ "shrink-checks" ] ~docv:"N" ~doc)
  in
  let dir_t =
    let doc = "The corpus directory." in
    Arg.(required & opt (some string) None & info [ "dir" ] ~docv:"DIR" ~doc)
  in
  let mine_config seed count vocab limit max_steps techniques shrink_checks =
    {
      Mine.default_config with
      Mine.campaign_seed = seed;
      count;
      vocab;
      limit;
      max_steps;
      techniques;
      shrink_checks;
    }
  in
  (* Phase A, sharded: probe i is pure in (cfg, i), so futures are awaited
     in index order and the probe list — hence everything downstream — is
     byte-identical for every --jobs. With a store, finished probes are
     read back instead of re-run, and fresh ones are journalled per
     program×technique cell the moment they complete. *)
  let mine_probes (cfg : Mine.config) jobs store =
    let bench_name i =
      "corpus."
      ^ Manifest.entry_name ~campaign_seed:cfg.Mine.campaign_seed ~index:i
    in
    let keys i =
      let seed =
        Sct_fuzz.Gen.derive_seed ~campaign_seed:cfg.Mine.campaign_seed
          ~index:i
      in
      let o = Mine.options_of cfg ~seed in
      ( seed,
        o,
        List.map
          (fun t ->
            ( t,
              Sct_store.Db.fingerprint ~bench:(bench_name i)
                ~technique:(Sct_explore.Techniques.name t) o ))
          cfg.Mine.techniques )
    in
    let cached i =
      match store with
      | None -> None
      | Some db -> (
          let seed, _, cells = keys i in
          let entries =
            List.map
              (fun (t, key) ->
                Option.map (fun e -> (t, e)) (Sct_store.Db.find db key))
              cells
          in
          match
            List.map (function Some e -> e | None -> raise Exit) entries
          with
          | entries ->
              Some
                {
                  Mine.p_index = i;
                  p_seed = seed;
                  p_racy =
                    (match entries with
                    | (_, e) :: _ -> e.Sct_store.Db.e_racy
                    | [] -> 0);
                  p_stats =
                    List.map
                      (fun (t, e) -> (t, e.Sct_store.Db.e_stats))
                      entries;
                }
          | exception Exit -> None)
    in
    let journal (p : Mine.probe) =
      match store with
      | None -> ()
      | Some db ->
          let _, o, cells = keys p.Mine.p_index in
          List.iter2
            (fun (t, key) (t', stats) ->
              assert (t = t');
              Sct_store.Db.record db ~key ~bench:(bench_name p.Mine.p_index)
                ~technique:(Sct_explore.Techniques.name t)
                ~racy:p.Mine.p_racy ~options:o stats)
            cells p.Mine.p_stats
    in
    Sct_parallel.Pool.with_pool ~jobs:(resolve_jobs jobs) (fun pool ->
        List.init cfg.Mine.count (fun i ->
            match cached i with
            | Some p -> Either.Left p
            | None ->
                Either.Right
                  (Sct_parallel.Pool.submit pool (fun () -> Mine.probe cfg i)))
        |> List.map (function
             | Either.Left p -> p
             | Either.Right fut ->
                 let p = Sct_parallel.Pool.await fut in
                 journal p;
                 p))
  in
  let mine_outcome cfg jobs store resume =
    let store = open_store ~resume store in
    let probes = mine_probes cfg jobs store in
    close_store store;
    Mine.collect cfg probes
  in
  let print_outcome (cfg : Mine.config) (o : Mine.outcome) =
    Printf.printf
      "mined %d programs (seed %d, vocab %s, limit %d): %d hard, %d \
       duplicate(s), %d kept\n"
      o.Mine.o_programs cfg.Mine.campaign_seed
      (Sct_fuzz.Gen.vocab_name cfg.Mine.vocab)
      cfg.Mine.limit o.Mine.o_hard o.Mine.o_duplicates
      (List.length o.Mine.o_candidates);
    List.iter
      (fun (c : Mine.candidate) ->
        let h = c.Mine.c_hardness in
        Printf.printf "%-12s %-12s size %d (from %d)  digest %s  found-by %s\n"
          (Manifest.entry_name ~campaign_seed:cfg.Mine.campaign_seed
             ~index:c.Mine.c_index)
          (Sct_corpus.Hardness.cls_name h.Sct_corpus.Hardness.h_class)
          c.Mine.c_size c.Mine.c_original_size
          (String.sub c.Mine.c_digest 0 12)
          (match h.Sct_corpus.Hardness.h_found_by with
          | [] -> "-"
          | fs -> String.concat "," fs))
      o.Mine.o_candidates
  in
  let mine_cmd =
    let run seed count vocab limit max_steps techs shrink_checks jobs store
        resume =
      let cfg = mine_config seed count vocab limit max_steps techs shrink_checks in
      print_outcome cfg (mine_outcome cfg jobs store resume)
    in
    Cmd.v
      (Cmd.info "mine"
         ~doc:
           "Mine hard concurrency scenarios: generate $(b,--count) seeded \
            programs, survey each under the configured techniques, keep \
            the deep/rare/elusive ones, shrink them, and dedupe \
            behavioural duplicates. Deterministic in (seed, count); \
            byte-identical for every $(b,--jobs); resumable via \
            $(b,--store).")
      Term.(
        const run $ seed_t $ count_t $ vocab_t $ mine_limit_t $ max_steps_t
        $ all_techniques_t $ shrink_checks_t $ jobs_t $ store_t $ resume_t)
  in
  let promote_cmd =
    let run seed count vocab limit max_steps techs shrink_checks jobs store
        resume dir =
      let cfg = mine_config seed count vocab limit max_steps techs shrink_checks in
      let outcome = mine_outcome cfg jobs store resume in
      let manifest =
        Sct_corpus.Suite_io.write ~dir cfg outcome.Mine.o_candidates
      in
      Printf.printf "promoted %d program(s) to %s\n"
        (List.length manifest.Manifest.entries)
        dir
    in
    Cmd.v
      (Cmd.info "promote"
         ~doc:
           "Mine (resuming from $(b,--store) when given) and write the \
            kept programs into $(b,--dir) as a versioned extension suite: \
            one readable program file per entry plus a manifest recording \
            seeds, hardness and behavioural digests. Re-promoting the \
            same mine is byte-identical.")
      Term.(
        const run $ seed_t $ count_t $ vocab_t $ mine_limit_t $ max_steps_t
        $ all_techniques_t $ shrink_checks_t $ jobs_t $ store_t $ resume_t
        $ dir_t)
  in
  let stats_cmd =
    let run dir =
      let path = Filename.concat dir Sct_corpus.Suite_io.manifest_file in
      match In_channel.with_open_bin path In_channel.input_all with
      | exception Sys_error msg ->
          prerr_endline msg;
          exit 1
      | src -> (
          match Manifest.of_string src with
          | Error msg ->
              prerr_endline msg;
              exit 1
          | Ok m -> Sct_corpus.Report.stats Format.std_formatter m)
    in
    Cmd.v
      (Cmd.info "stats"
         ~doc:
           "Describe a promoted corpus from its manifest: mining \
            configuration, hardness census, per-entry records.")
      Term.(const run $ dir_t)
  in
  let run_cmd =
    let run dir o jobs techniques store resume =
      load_corpus (Some dir);
      let benches = Sctbench.Registry.of_suite Sctbench.Bench.Corpus in
      if benches = [] then begin
        prerr_endline "corpus run: the corpus is empty";
        exit 1
      end;
      let store = open_store ~resume store in
      let rows =
        Sct_parallel.Pool.with_pool ~jobs:(resolve_jobs jobs) (fun pool ->
            Sct_parallel.Suite.run_all ~pool ?store ~techniques ~progress o
              benches)
      in
      close_store store;
      Sct_report.Table3.print ~limit:o.Sct_explore.Techniques.limit rows;
      (* the manifest's mining-time hardness is the corpus paper row, so
         the agreement table is a standing regression study: current
         behaviour vs promoted behaviour *)
      Sct_report.Table3.print_agreement rows
    in
    Cmd.v
      (Cmd.info "run"
         ~doc:
           "Load a promoted corpus and run the full study pipeline over \
            it, printing the Table-3-style report plus the agreement of \
            current behaviour against the mining-time record — the \
            corpus's standing regression study.")
      Term.(
        const run $ dir_t $ options_t $ jobs_t $ techniques_t $ store_t
        $ resume_t)
  in
  Cmd.group
    (Cmd.info "corpus"
       ~doc:
         "The benchmark factory: mine hard generated scenarios, promote \
          them into a versioned extension suite, and keep them honest as \
          a standing regression study.")
    [ mine_cmd; promote_cmd; stats_cmd; run_cmd ]

(* fleet-scale campaign orchestration *)
let campaign_store_t =
  let doc =
    "The campaign store directory. Opened resumably: an existing journal \
     is continued from exactly where it stopped."
  in
  Arg.(required & opt (some string) None & info [ "store" ] ~docv:"DIR" ~doc)

let slice_t =
  let doc =
    "Budget slice (schedules) leased to a cell at a time; at least 1."
  in
  Arg.(value & opt positive 500 & info [ "slice" ] ~docv:"N" ~doc)

let shard_conv =
  let parse s =
    let error expected =
      Error (`Msg (Printf.sprintf "invalid shard %S, expected %s" s expected))
    in
    match String.split_on_char '/' s with
    | [ k; n ] -> (
        match (int_of_string_opt k, int_of_string_opt n) with
        | Some k, Some n when n >= 1 && k >= 0 && k < n -> Ok (k, n)
        | _ -> error "K/N with 0 <= K < N")
    | _ -> error "K/N, e.g. 0/3"
  in
  let print ppf (k, n) = Format.fprintf ppf "%d/%d" k n in
  Arg.conv ~docv:"K/N" (parse, print)

let run_campaign ~shard o jobs benches techniques slice store =
  let cells = Sct_campaign.Cell.grid ~techniques o benches in
  let cells =
    match shard with
    | None -> cells
    | Some (k, n) -> Sct_campaign.Cell.shard ~k ~n cells
  in
  let db = Sct_store.Db.open_ ~dir:store in
  let outcome =
    Sct_parallel.Pool.with_pool ~jobs:(resolve_jobs jobs) (fun pool ->
        Sct_campaign.Orchestrator.run ~slice
          ~on_slice:(fun c p ->
            Printf.eprintf "%-40s slice %d: %d schedules banked%s\n%!"
              (Sct_campaign.Cell.name c)
              p.Sct_store.Codec.p_slices p.Sct_store.Codec.p_consumed
              (if p.Sct_store.Codec.p_done then " (done)" else ""))
          ~pool ~db cells)
  in
  Sct_store.Db.close db;
  Printf.printf "campaign: %d cells, %d finished, %d slice(s) this run\n"
    outcome.Sct_campaign.Orchestrator.cells
    outcome.Sct_campaign.Orchestrator.finished
    outcome.Sct_campaign.Orchestrator.slices

let campaign_cmd =
  let grid_args run =
    Term.(
      const run $ options_t $ jobs_t $ benches_t $ techniques_t $ slice_t
      $ campaign_store_t)
  in
  let run_cmd =
    Cmd.v
      (Cmd.info "run"
         ~doc:
           "Run (or resume) a campaign over the selected grid in this \
            process, leasing budget slices per cell until every cell is \
            done. Safe to kill at any instant: relaunching on the same \
            store resumes exactly.")
      (grid_args (run_campaign ~shard:None))
  in
  let worker_cmd =
    let shard_t =
      let doc =
        "This worker's lease, $(b,K/N): of $(i,N) disjoint shards of the \
         campaign grid, work the $(i,K)-th (0-based). Each worker writes \
         its own store; fold them with $(b,store merge)."
      in
      Arg.(
        required
        & opt (some shard_conv) None
        & info [ "shard" ] ~docv:"K/N" ~doc)
    in
    let run shard = run_campaign ~shard:(Some shard) in
    Cmd.v
      (Cmd.info "worker"
         ~doc:
           "Run one shard of a campaign into a per-worker store (multi-\
            process fleets: N workers with --shard 0/N .. (N-1)/N, then \
            $(b,store merge)).")
      Term.(
        const run $ shard_t $ options_t $ jobs_t $ benches_t $ techniques_t
        $ slice_t $ campaign_store_t)
  in
  let status_cmd =
    let run store =
      let db = Sct_store.Db.open_ ~dir:store in
      Sct_campaign.Status.render Format.std_formatter db;
      Sct_store.Db.close db
    in
    Cmd.v
      (Cmd.info "status"
         ~doc:
           "Report per-cell campaign progress (banked budget, slices, \
            distinct-schedule growth) from any store.")
      Term.(const run $ campaign_store_t)
  in
  Cmd.group
    (Cmd.info "campaign"
       ~doc:
         "Fleet-scale campaign orchestration: restartable budget-sliced \
          runs, round-robin allocation, multi-process sharding.")
    [ run_cmd; worker_cmd; status_cmd ]

(* store maintenance *)
let store_cmd =
  let into_t =
    let doc = "Destination store directory (created if missing)." in
    Arg.(required & opt (some string) None & info [ "into" ] ~docv:"DIR" ~doc)
  in
  let srcs_t =
    Arg.(
      non_empty & pos_all string []
      & info [] ~docv:"SRC" ~doc:"Source store directories.")
  in
  let merge_cmd =
    let run into srcs =
      let dst = Sct_store.Db.open_ ~dir:into in
      List.iter
        (fun dir ->
          let src = Sct_store.Db.open_ ~dir in
          Sct_store.Db.merge_from dst ~src;
          Sct_store.Db.close src)
        srcs;
      Printf.printf "merged %d store(s) into %s: %d cells (%d finished)\n"
        (List.length srcs) into
        (List.length (Sct_store.Db.entries_any dst))
        (Sct_store.Db.size dst);
      Sct_store.Db.close dst
    in
    Cmd.v
      (Cmd.info "merge"
         ~doc:
           "Fold worker stores into one: copy witness artifacts and keep \
            the most advanced record per cell. Associative, commutative \
            and idempotent, so any merge order yields the same store.")
      Term.(const run $ into_t $ srcs_t)
  in
  let compact_cmd =
    let store_req_t =
      let doc = "The store directory to compact." in
      Arg.(
        required & opt (some string) None & info [ "store" ] ~docv:"DIR" ~doc)
    in
    let run store =
      let db = Sct_store.Db.open_ ~dir:store in
      let before = List.length (Sct_store.Db.entries_any db) in
      Sct_store.Db.compact db;
      Printf.printf "compacted %s: %d record(s) kept\n" store before;
      Sct_store.Db.close db
    in
    Cmd.v
      (Cmd.info "compact"
         ~doc:
           "Atomically rewrite the journal keeping only the latest record \
            per cell, dropping superseded campaign slices and any torn \
            tail. Resume behaviour is unchanged.")
      Term.(const run $ store_req_t)
  in
  Cmd.group
    (Cmd.info "store" ~doc:"Maintain study/campaign store directories.")
    [ merge_cmd; compact_cmd ]

(* recorded bug-witness artifacts *)
let artifacts_cmd =
  let store_req_t =
    let doc = "The study store directory (as given to $(b,--store))." in
    Arg.(
      required & opt (some string) None & info [ "store" ] ~docv:"DIR" ~doc)
  in
  let artifacts_dir store = Filename.concat store "artifacts" in
  let pp_bound = function None -> "-" | Some b -> string_of_int b in
  let list_cmd =
    let run store =
      List.iter
        (fun (a : Sct_store.Artifact.t) ->
          let m = a.Sct_store.Artifact.meta in
          Format.printf "%s  %-28s %-8s bound=%s pc=%d dc=%d  %a@."
            a.Sct_store.Artifact.digest m.Sct_store.Artifact.a_bench
            m.Sct_store.Artifact.a_technique
            (pp_bound m.Sct_store.Artifact.a_bound)
            m.Sct_store.Artifact.a_pc m.Sct_store.Artifact.a_dc
            Sct_core.Outcome.pp_bug m.Sct_store.Artifact.a_bug)
        (Sct_store.Artifact.list ~dir:(artifacts_dir store))
    in
    Cmd.v
      (Cmd.info "list" ~doc:"List the recorded bug-witness artifacts.")
      Term.(const run $ store_req_t)
  in
  let digest_t =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"DIGEST" ~doc:"Artifact digest (from artifacts list).")
  in
  let load_artifact store digest =
    let path = Filename.concat (artifacts_dir store) (digest ^ ".sched") in
    if not (Sys.file_exists path) then begin
      Printf.eprintf "no artifact %s in %s\n" digest store;
      exit 1
    end;
    (* a corrupted or tampered artifact must fail the command, not crash
       with an uncaught exception *)
    match Sct_store.Artifact.load path with
    | a -> a
    | exception Sct_store.Artifact.Error msg ->
        prerr_endline msg;
        exit 1
  in
  let show_cmd =
    let run store digest =
      let a = load_artifact store digest in
      let m = a.Sct_store.Artifact.meta in
      Format.printf "digest:    %s@." a.Sct_store.Artifact.digest;
      Format.printf "benchmark: %s@." m.Sct_store.Artifact.a_bench;
      Format.printf "technique: %s@." m.Sct_store.Artifact.a_technique;
      Format.printf "bound:     %s@." (pp_bound m.Sct_store.Artifact.a_bound);
      Format.printf "bug:       %a (by thread %d)@." Sct_core.Outcome.pp_bug
        m.Sct_store.Artifact.a_bug m.Sct_store.Artifact.a_by;
      Format.printf "pc=%d dc=%d, %d steps@." m.Sct_store.Artifact.a_pc
        m.Sct_store.Artifact.a_dc
        (Sct_core.Schedule.length a.Sct_store.Artifact.schedule);
      Format.printf "schedule:  %a@." Sct_core.Schedule.pp
        a.Sct_store.Artifact.schedule
    in
    Cmd.v
      (Cmd.info "show" ~doc:"Describe one recorded witness.")
      Term.(const run $ store_req_t $ digest_t)
  in
  let replay_cmd =
    let run store digest =
      let a = load_artifact store digest in
      let m = a.Sct_store.Artifact.meta in
      with_bench m.Sct_store.Artifact.a_bench (fun b ->
          (* re-derive the promoted-location set with the options of the run
             that recorded the witness: schedule feasibility depends on it *)
          let o = m.Sct_store.Artifact.a_options in
          let promote =
            Sct_race.Promotion.promote
              (Sct_explore.Techniques.detect_races o b.Sctbench.Bench.program)
          in
          match
            Sct_explore.Replay.replay ~promote
              ~max_steps:o.Sct_explore.Techniques.max_steps
              ~schedule:a.Sct_store.Artifact.schedule b.Sctbench.Bench.program
          with
          | None ->
              print_endline "witness schedule is infeasible for this program";
              exit 1
          | Some r ->
              Format.printf "outcome: %a@." Sct_core.Outcome.pp
                r.Sct_core.Runtime.r_outcome;
              if not (Sct_core.Outcome.is_buggy r.Sct_core.Runtime.r_outcome)
              then begin
                print_endline "witness did NOT reproduce the bug";
                exit 1
              end)
    in
    Cmd.v
      (Cmd.info "replay"
         ~doc:
           "Replay a recorded witness against its benchmark; exits non-zero \
            unless the bug reproduces.")
      Term.(const run $ store_req_t $ digest_t)
  in
  Cmd.group
    (Cmd.info "artifacts"
       ~doc:"Inspect and replay the bug witnesses recorded in a study store.")
    [ list_cmd; show_cmd; replay_cmd ]

let () =
  let cmds =
    [
      list_cmd;
      info_cmd;
      detect_cmd;
      run_cmd;
      replay_cmd;
      minimize_cmd;
      por_cmd;
      fuzz_cmd;
      corpus_cmd;
      campaign_cmd;
      store_cmd;
      artifacts_cmd;
      study_cmd "table1" `Table1 "Regenerate Table 1 (suite overview).";
      study_cmd "table2" `Table2 "Regenerate Table 2 (trivial benchmarks).";
      study_cmd "table3" `Table3 "Regenerate Table 3 (full results).";
      study_cmd "fig2" `Fig2 "Regenerate Figure 2 (Venn diagrams).";
      study_cmd "fig3" `Fig3 "Regenerate Figure 3 (schedules to first bug).";
      study_cmd "fig4" `Fig4 "Regenerate Figure 4 (worst-case schedules).";
      study_cmd "agreement" `Agreement
        "Paper-vs-measured bug-finding agreement only.";
      study_cmd "csv" `Csv "Export the Table 3 data as CSV.";
    ]
  in
  let info =
    Cmd.info "sctbench_run" ~version:"1.0.0"
      ~doc:
        "Systematic concurrency testing on SCTBench: schedule bounding \
         study reproduction."
  in
  exit (Cmd.eval (Cmd.group info cmds))
