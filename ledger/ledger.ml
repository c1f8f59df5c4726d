(* The wall-clock ledger: end-to-end metrics of four workloads, and a
   traced run that attributes their time to the layers (lib/ modules).

   Usage, from the root of the repository:
     ledger.exe --workload W --seed S --seconds T --trace 0|1 [--out DIR]
         one run of one workload; the last line of standard output is a
         JSON object with the run's metrics
     ledger.exe all --seed S [--reps N] [--seconds T] [--trace 0|1] [--out DIR]
         every workload, N runs each, each run in a fresh process; prints
         median, quartiles and sample count per metric and writes
         DIR/summary-sS.json
     ledger.exe compare A.json B.json
         a verdict per workload and end-to-end metric of two summaries
     ledger.exe smoke
         every workload at toy size, untraced and traced
     ledger.exe expect --seed S
         write the reference digests under ledger/expected/
     ledger.exe setup --workload W --seed S
         set the workload up, print how many nanoseconds that took, tear
         it down (a run launches this to measure setup_s)
     ledger.exe sampler
         sample the host's speed until standard input closes (a run of
         study-par launches this; see Host)

   bash ledger/run.sh builds this program and passes its arguments on.
   See ledger/README.md. *)

let end_to_end_units =
  [
    ("setup_s", "s");
    ("round_s", "s");
    ("schedules_per_s", "1/s");
    ("steps_per_s", "1/s");
    ("peak_heap_mb", "MB");
  ]

type opts = {
  workload : string option;
  seed : int;
  seconds : float;
  trace : bool;
  smoke : bool;
  reps : int;
  out : string;
  files : string list;
}

let usage () =
  prerr_endline
    "usage: ledger.exe [all|compare|smoke|expect|setup] [--workload W] [--seed \
     S] [--seconds T] [--trace 0|1] [--reps N] [--out DIR] [--smoke]";
  exit 2

let parse args =
  let int_arg v = match int_of_string_opt v with Some i -> i | None -> usage () in
  let rec go o = function
    | [] -> { o with files = List.rev o.files }
    | "--workload" :: v :: rest -> go { o with workload = Some v } rest
    | "--seed" :: v :: rest -> go { o with seed = int_arg v } rest
    | "--seconds" :: v :: rest -> (
        match float_of_string_opt v with
        | Some s when s > 0. -> go { o with seconds = s } rest
        | _ -> usage ())
    | "--trace" :: v :: rest -> (
        match v with
        | "0" -> go { o with trace = false } rest
        | "1" -> go { o with trace = true } rest
        | _ -> usage ())
    | "--reps" :: v :: rest -> go { o with reps = max 1 (int_arg v) } rest
    | "--out" :: v :: rest -> go { o with out = v } rest
    | "--smoke" :: rest -> go { o with smoke = true } rest
    | f :: rest when String.length f > 0 && f.[0] <> '-' ->
        go { o with files = f :: o.files } rest
    | _ -> usage ()
  in
  go
    {
      workload = None;
      seed = 0;
      seconds = 20.;
      trace = false;
      smoke = false;
      reps = 5;
      out = ".ledger";
      files = [];
    }
    args

let size o = if o.smoke then Workloads.smoke else Workloads.full

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let child_args o ~workload ~trace =
  [
    "--workload"; workload; "--seed"; string_of_int o.seed; "--seconds";
    Printf.sprintf "%g" o.seconds; "--trace"; (if trace then "1" else "0");
    "--out"; o.out;
  ]
  @ if o.smoke then [ "--smoke" ] else []

(* Runs this program with [args] and returns its exit status and the last
   non-empty line of its standard output. *)
let child_output args =
  let ic =
    Unix.open_process_args_in Sys.executable_name
      (Array.of_list (Sys.executable_name :: args))
  in
  let last =
    List.fold_left
      (fun acc l -> if String.trim l = "" then acc else Some l)
      None (In_channel.input_lines ic)
  in
  let status = Unix.close_process_in ic in
  Option.map (fun l -> (status, l)) last

(* Set-up time as a user meets it: from launching the program to its first
   timed call. That is process start, the runtime's and the libraries'
   initialisation (which builds the benchmark registry), and the
   workload's set-up: pool spawn, the campaign grid, fuzz program
   generation and compilation. One sample launches a fresh
   [ledger.exe setup], which sets the workload up, prints how long its own
   set-up took, and tears it down; the sample ends when that line
   arrives. One launch takes 1.5-3 ms, and single samples can be twice as
   slow, so [setup_per_round] samples are taken before every round and
   the run reports their median. Each sample is followed by a host sample
   in a fresh process ([Host.launch_sample]), and is scaled by it. Returns
   (launch to first call, the workload's own set-up) in seconds, and the
   host sample in ns. *)
let setup_per_round = 5

let setup_sample o ~workload =
  let args = "setup" :: child_args o ~workload ~trace:false in
  let t0 = Trace.now_ns () in
  let ic =
    Unix.open_process_args_in Sys.executable_name
      (Array.of_list (Sys.executable_name :: args))
  in
  let line = In_channel.input_line ic in
  let t1 = Trace.now_ns () in
  ignore (In_channel.input_all ic);
  match (Unix.close_process_in ic, Option.bind line int_of_string_opt) with
  | Unix.WEXITED 0, Some own ->
      (Trace.seconds_of_ns (t1 - t0), Trace.seconds_of_ns own, Host.launch_sample ())
  | _ -> failwith "ledger: a set-up sample failed"

let metrics_json units values =
  Json.Obj
    (List.map
       (fun (name, unit) ->
         let v = Option.value ~default:0. (List.assoc_opt name values) in
         (name, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str unit) ]))
       units)

let print_metrics units values =
  List.iter
    (fun (name, unit) ->
      Printf.printf "  %-38s %16.6g %s\n" name
        (Option.value ~default:0. (List.assoc_opt name values))
        unit)
    units

(* One run of one workload. *)
let run o =
  let name = match o.workload with Some w -> w | None -> usage () in
  if not (List.mem name Workloads.names) then begin
    Printf.eprintf "ledger: unknown workload %S (one of: %s)\n" name
      (String.concat ", " Workloads.names);
    exit 2
  end;
  let w = Workloads.setup (size o) ~seed:o.seed name in
  let committed =
    Option.bind w.Workloads.reference (fun stem ->
        Check.read_expected ~stem ~seed:o.seed)
  in
  let reference =
    match committed with Some t -> t | None -> Hashtbl.create 512
  in
  let attempted = ref 0 in
  let failed = ref 0 in
  let witnesses = ref None in
  let check_cells cells =
    if w.Workloads.reference <> None then begin
      attempted := !attempted + List.length cells;
      failed := !failed + Check.against reference cells;
      if !witnesses = None then witnesses := Some (Check.witnesses cells)
    end
  in
  let check (r : Workloads.round) =
    attempted := !attempted + r.checked;
    failed := !failed + r.failed;
    check_cells r.cells;
    Workloads.tally r
  in
  (* A round that raises is one failed operation and ends the run. *)
  let attempt f =
    match f () with
    | r -> Some r
    | exception e ->
        Printf.eprintf "ledger: %s: %s\n%!" name (Printexc.to_string e);
        incr attempted;
        incr failed;
        None
  in
  let setups = ref [] in
  let tr = Trace.create () in
  (* A traced run's extras: their checks count like a round's, their
     metrics join the per-layer ones. *)
  let extras hook =
    match attempt (fun () -> hook tr) with
    | None -> []
    | Some (e : Workloads.extras) ->
        attempted := !attempted + e.e_checked;
        failed := !failed + e.e_failed;
        if e.e_cells <> [] then check_cells e.e_cells;
        e.e_metrics
  in
  let prologue = if o.trace then extras w.Workloads.prologue else [] in
  let start = Trace.now_ns () in
  let time_left last =
    Trace.seconds_of_ns (Trace.now_ns () - start) +. last <= o.seconds
  in
  (* A warm-up round grows the heap and touches the code and data a round
     needs. It is checked like any other, but not timed. *)
  let warm = attempt w.Workloads.round in
  Option.iter (fun r -> ignore (check r)) warm;
  (* The top of the heap after the warm-up round: later rounds repeat the
     same work, and fragmentation would otherwise tie the peak to the
     number of rounds that fit in a run. *)
  let heap_words = (Gc.quick_stat ()).Gc.top_heap_words in
  (* Timed rounds until the next one would end past [--seconds] (which
     counts the warm-up); at least one. A traced run alternates an
     untraced and a traced round. *)
  let rec rounds untraced traced gcs last =
    if warm = None || (untraced <> [] && not (time_left last)) then
      (List.rev untraced, List.rev traced, List.rev gcs)
    else begin
      for _ = 1 to setup_per_round do
        setups := setup_sample o ~workload:name :: !setups
      done;
      match attempt w.Workloads.round with
      | None -> (List.rev untraced, List.rev traced, List.rev gcs)
      | Some u -> (
          let u = check u in
          if not o.trace then rounds (u :: untraced) traced gcs u.t_wall
          else
            let g0 = Layers.gc_now () in
            match
              attempt (fun () ->
                  Trace.within tr ~parent:0 ~name:"round" ~cell:name
                    (fun parent -> w.Workloads.traced_round tr ~parent))
            with
            | None -> (List.rev (u :: untraced), List.rev traced, List.rev gcs)
            | Some t ->
                let g = Layers.gc_delta g0 (Layers.gc_now ()) in
                let t = check t in
                rounds (u :: untraced) (t :: traced) (g :: gcs)
                  (u.t_wall +. t.t_wall))
    end
  in
  let untraced, traced, gcs =
    rounds [] [] [] (Option.fold ~none:0. ~some:(fun r -> r.Workloads.wall) warm)
  in
  let epilogue =
    if o.trace && traced <> [] then extras w.Workloads.epilogue else []
  in
  (match (committed, !witnesses) with
  | None, Some ws ->
      let n, bad = Check.replay_witnesses w.Workloads.options ws in
      attempted := !attempted + n;
      failed := !failed + bad
  | _ -> ());
  w.Workloads.teardown ();
  if untraced = [] || (o.trace && traced = []) then exit 2;
  let units, values =
    if not o.trace then
      (* Set-up samples and rounds are scaled to the reference host (see
         Host). The round metrics are means over the timed rounds, not
         medians: the host's speed drifts over tens of seconds, so rounds
         come in slow and fast stretches, and the median of a run jumps
         between them where the mean moves with their share. *)
      let wall =
        List.fold_left
          (fun a (t : Workloads.tally) -> a +. Host.scale ~wall:t.t_wall t.t_samples)
          0. untraced
      in
      let rate f =
        float_of_int (List.fold_left (fun a t -> a + f t) 0 untraced) /. wall
      in
      ( end_to_end_units,
        [
          ( "setup_s",
            Summary.median (List.map (fun (t, _, k) -> Host.scale_launch t k) !setups) );
          ("round_s", wall /. float_of_int (List.length untraced));
          ("schedules_per_s", rate (fun t -> t.Workloads.schedules));
          ("steps_per_s", rate (fun t -> t.Workloads.steps));
          ("peak_heap_mb", float_of_int (heap_words * (Sys.word_size / 8)) /. 1e6);
        ] )
    else begin
      mkdir_p o.out;
      let path = Filename.concat o.out (Printf.sprintf "trace-%s.jsonl" name) in
      Trace.write tr path;
      Printf.printf "wrote %s\n" path;
      ( Layers.units,
        Layers.compute ~spans:(Trace.spans tr) ~traced ~untraced ~gc:gcs
          ~setups:!setups
        @ prologue @ epilogue )
    end
  in
  Printf.printf "%s, seed %d: %d untraced and %d traced rounds, %d operations \
                 checked, %d failed\n"
    name o.seed (List.length untraced) (List.length traced) !attempted !failed;
  let show f l = String.concat " " (List.map (fun t -> Printf.sprintf "%.3f" (f t)) l) in
  let wall t = t.Workloads.t_wall in
  Printf.printf "  round walls (s): %s\n" (show wall untraced);
  Printf.printf "  mean host sample per round (ms): %s\n"
    (show (fun t -> Layers.mean_ms t.Workloads.t_samples) untraced);
  if o.trace then Printf.printf "  traced round walls (s): %s\n" (show wall traced);
  print_metrics units values;
  let correct = !failed = 0 in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Num (float_of_int (max 1 !attempted)));
            ("failed", Json.Num (float_of_int !failed));
            ("metrics", metrics_json units values);
          ]));
  exit (if correct then 0 else 1)

let setup_child o =
  let name = match o.workload with Some w -> w | None -> usage () in
  let t0 = Trace.now_ns () in
  let w = Workloads.setup (size o) ~seed:o.seed name in
  Printf.printf "%d\n%!" (Trace.now_ns () - t0);
  w.Workloads.teardown ()

(* Runs one workload in a fresh process and returns its result line. *)
let run_child o ~workload ~trace =
  match child_output (child_args o ~workload ~trace) with
  | Some (Unix.WEXITED (0 | 1), l) -> (
      try Some (Json.of_string l) with Json.Error _ -> None)
  | _ -> None

let benchmark_metrics section =
  let doc = Json.read_file "BENCHMARK.json" in
  List.map
    (fun m ->
      ( Json.to_str (Json.field "name" m),
        (match Json.member "better" m with Some (Json.Str b) -> b | _ -> "lower"),
        match Json.member "bound" m with Some (Json.Num b) -> b | _ -> 0. ))
    (Json.to_list (Json.field section doc))

let result_ok j =
  Json.member "correct" j = Some (Json.Bool true)
  && Json.member "failed" j = Some (Json.Num 0.)

let all o =
  let workloads = match o.workload with Some w -> [ w ] | None -> Workloads.names in
  let bounds = try benchmark_metrics "end_to_end" with _ -> [] in
  let ok = ref true in
  let summaries =
    List.map
      (fun workload ->
        let results =
          List.init o.reps (fun _ ->
              match run_child o ~workload ~trace:false with
              | Some j -> j
              | None ->
                  Printf.eprintf "ledger: a %s run failed\n%!" workload;
                  exit 1)
        in
        let layers = if o.trace then run_child o ~workload ~trace:true else None in
        let all_results = results @ Option.to_list layers in
        if not (List.for_all result_ok all_results) then ok := false;
        let count k =
          List.fold_left (fun a j -> a +. Json.to_num (Json.field k j)) 0. all_results
        in
        Printf.printf "\n%s: %d runs, %.0f operations checked, %.0f failed\n" workload
          o.reps (count "attempted") (count "failed");
        Printf.printf "  %-18s %14s %14s %14s %3s %7s %6s\n" "metric" "median" "q1" "q3"
          "n" "spread" "bound";
        let metrics =
          List.map
            (fun (name, unit) ->
              let values =
                List.map
                  (fun j ->
                    Json.to_num
                      (Json.field "value" (Json.field name (Json.field "metrics" j))))
                  results
              in
              let q1, q3 = Summary.quartiles values in
              let med = Summary.median values in
              let bound =
                List.find_map (fun (n, _, b) -> if n = name then Some b else None) bounds
              in
              Printf.printf "  %-18s %14.6g %14.6g %14.6g %3d %6.1f%% %5s %s\n" name med
                q1 q3 (List.length values)
                (100. *. Summary.spread values)
                (match bound with Some b -> Printf.sprintf "%.0f%%" (100. *. b) | None -> "-")
                unit;
              ( name,
                Json.Obj
                  [
                    ("unit", Json.Str unit);
                    ("median", Json.Num med);
                    ("q1", Json.Num q1);
                    ("q3", Json.Num q3);
                    ("n", Json.Num (float_of_int (List.length values)));
                    ("values", Json.Arr (List.map (fun v -> Json.Num v) values));
                  ] ))
            end_to_end_units
        in
        Option.iter
          (fun j ->
            Printf.printf "  per-layer (traced run):\n";
            List.iter
              (fun (name, m) ->
                Printf.printf "    %-38s %14.6g %s\n" name
                  (Json.to_num (Json.field "value" m))
                  (Json.to_str (Json.field "unit" m)))
              (Json.to_obj (Json.field "metrics" j)))
          layers;
        Json.Obj
          ([
             ("name", Json.Str workload);
             ("attempted", Json.Num (count "attempted"));
             ("failed", Json.Num (count "failed"));
             ("metrics", Json.Obj metrics);
           ]
          @ Option.fold ~none:[]
              ~some:(fun j -> [ ("layers", Json.field "metrics" j) ])
              layers))
      workloads
  in
  mkdir_p o.out;
  let path = Filename.concat o.out (Printf.sprintf "summary-s%d.json" o.seed) in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc
        (Json.to_string
           (Json.Obj
              [
                ("seed", Json.Num (float_of_int o.seed));
                ("reps", Json.Num (float_of_int o.reps));
                ("seconds", Json.Num o.seconds);
                ("workloads", Json.Arr summaries);
              ]));
      output_char oc '\n');
  Printf.printf "\nwrote %s\n" path;
  if not !ok then exit 1

(* The verdict of [b] against [a] on one metric: unresolved when either
   side's interquartile spread exceeds the bound, unless every run of [b]
   beats every run of [a]; worse when [b]'s median is worse by more than
   the bound; better when it is better by more than [a]'s interquartile
   distance. *)
let verdict ~better ~bound a b =
  let lower = better = "lower" in
  let beats x y = if lower then x < y else x > y in
  let ma = Summary.median a and mb = Summary.median b in
  let q1a, q3a = Summary.quartiles a in
  let worse_by = (if lower then mb -. ma else ma -. mb) /. Float.abs ma in
  let all_beat = List.for_all (fun y -> List.for_all (fun x -> beats y x) a) b in
  if Float.max (Summary.spread a) (Summary.spread b) > bound then
    if all_beat then "better" else "unresolved"
  else if worse_by > bound then "worse"
  else if -.worse_by *. Float.abs ma > q3a -. q1a then "better"
  else "unchanged"

let compare_summaries o =
  let a_path, b_path =
    match o.files with [ a; b ] -> (a, b) | _ -> usage ()
  in
  let workloads path =
    List.map
      (fun w -> (Json.to_str (Json.field "name" w), Json.field "metrics" w))
      (Json.to_list (Json.field "workloads" (Json.read_file path)))
  in
  let a = workloads a_path and b = workloads b_path in
  let values m name =
    List.map Json.to_num (Json.to_list (Json.field "values" (Json.field name m)))
  in
  let worse = ref false in
  Printf.printf "%-10s %-16s %12s %25s %12s %25s  %s\n" "workload" "metric" "A median"
    "A [q1, q3]" "B median" "B [q1, q3]" "verdict";
  List.iter
    (fun (w, ma) ->
      match List.assoc_opt w b with
      | None -> Printf.printf "%-10s missing from %s\n" w b_path
      | Some mb ->
          List.iter
            (fun (name, better, bound) ->
              let va = values ma name and vb = values mb name in
              let v = verdict ~better ~bound va vb in
              if v = "worse" then worse := true;
              let q v =
                let q1, q3 = Summary.quartiles v in
                Printf.sprintf "[%.6g, %.6g]" q1 q3
              in
              Printf.printf "%-10s %-16s %12.6g %25s %12.6g %25s  %s\n" w name
                (Summary.median va) (q va) (Summary.median vb) (q vb) v)
            (benchmark_metrics "end_to_end"))
    a;
  if !worse then exit 1

(* Every workload at toy size, untraced and traced, each in a fresh
   process: every metric BENCHMARK.json names is present and nothing
   fails. *)
let smoke o =
  let o = { o with smoke = true; seconds = 1. } in
  let names section = List.map (fun (n, _, _) -> n) (benchmark_metrics section) in
  let ok = ref true in
  List.iter
    (fun workload ->
      List.iter
        (fun (trace, section) ->
          let verdict =
            match run_child o ~workload ~trace with
            | None -> "no result"
            | Some j ->
                let have = List.map fst (Json.to_obj (Json.field "metrics" j)) in
                let want = names section in
                if not (result_ok j) then "failed operations"
                else if List.sort compare have <> List.sort compare want then
                  "metric names differ from BENCHMARK.json"
                else "ok"
          in
          if verdict <> "ok" then ok := false;
          Printf.printf "smoke %-10s trace %d: %s\n%!" workload (Bool.to_int trace)
            verdict)
        [ (false, "end_to_end"); (true, "per_layer") ])
    Workloads.names;
  if not !ok then exit 1

(* The committed reference at full size: the grids from the sequential
   one-shot study runner, the batched cells from one fork-server pass. *)
let expect o =
  let size = Workloads.full and seed = o.seed in
  let grid limit =
    Workloads.cells_of_rows
      (Sct_report.Run_data.run_all
         (Workloads.options ~limit ~seed)
         Sctbench.Registry.all)
  in
  let batched =
    let o = Workloads.batched_options size ~seed in
    List.map
      (fun (id, s, _) -> (id, s))
      (Workloads.batched_pass ~parent:0 o (Workloads.batched_cell o))
  in
  List.iter
    (fun (stem, cells) -> print_endline (Check.write_expected ~stem ~seed cells))
    [
      (Workloads.grid_stem size.study_limit, grid size.study_limit);
      (Workloads.grid_stem size.campaign_limit, grid size.campaign_limit);
      (Workloads.batched_stem size.batched_limit, batched);
    ]

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "all" :: args -> all (parse args)
  | "compare" :: args -> compare_summaries (parse args)
  | "smoke" :: args -> smoke (parse args)
  | "expect" :: args -> expect (parse args)
  | "setup" :: args -> setup_child (parse args)
  | [ "sampler" ] -> Host.sampler_main ()
  | ("run" :: args | args) -> run (parse args)
