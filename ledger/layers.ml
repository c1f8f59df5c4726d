(* Per-layer metrics of a traced run, computed from its spans (only those
   inside traced rounds) and from the statistics of the cells those rounds
   ran. Time spent in a layer is reported as a share of the traced rounds'
   wall time ([trace.wall_s] is that base); a share is 0 where the workload
   does not cross that layer's boundary from the ledger's side. *)

open Sct_explore

type gc = { minor : float; major : float; promoted : float; words : float }

let gc_now () =
  let s = Gc.quick_stat () in
  {
    minor = float_of_int s.Gc.minor_collections;
    major = float_of_int s.Gc.major_collections;
    promoted = s.Gc.promoted_words;
    words = s.Gc.minor_words;
  }

let gc_delta a b =
  {
    minor = b.minor -. a.minor;
    major = b.major -. a.major;
    promoted = b.promoted -. a.promoted;
    words = b.words -. a.words;
  }

let tech_metric t = "explore.tech_share." ^ Techniques.name t

let mean_ms samples =
  float_of_int (List.fold_left ( + ) 0 samples)
  /. float_of_int (max 1 (List.length samples))
  /. 1e6

(* Every per-layer metric with its unit, in report order. The last seven
   come from a workload's extras (prefix_exec.* from study's prologue,
   the rest from campaign's epilogue) and are 0 on the others. *)
let units =
  [
    ("trace.wall_s", "s");
    ("trace.overhead_ratio", "ratio");
    ("host.round_wall_s", "s");
    ("host.sample_ms", "ms");
    ("setup.launch_ms", "ms");
    ("setup.workload_ms", "ms");
    ("item.p50_ms", "ms");
    ("item.p95_ms", "ms");
    ("explore.cell_p50_ms", "ms");
    ("explore.cell_p95_ms", "ms");
    ("explore.cell_max_s", "s");
    ("explore.ns_per_step", "ns");
    ("explore.cells_share", "ratio");
    ("race.share", "ratio");
    ("explore.init_share", "ratio");
    ("explore.choose_share", "ratio");
    ("core.exec_share", "ratio");
    ("explore.driver_share", "ratio");
    ("explore.decisions", "count");
    ("core.forced_step_ratio", "ratio");
    ("explore.useful_ratio", "ratio");
    ("parallel.busy_domains", "ratio");
    ("fuzz.oracle_self_share", "ratio");
    ("store.resume_share", "ratio");
    ("gc.minor_collections", "count");
    ("gc.major_collections", "count");
    ("gc.promoted_mwords", "Mwords");
    ("core.words_per_step", "words");
  ]
  @ List.map (fun t -> (tech_metric t, "ratio")) Techniques.all
  @ [
      ("prefix_exec.steps_saved_ratio", "ratio");
      ("prefix_exec.fork_over_fallback", "ratio");
      ("prefix_exec.fallback_over_unbatched", "ratio");
      ("campaign.overhead_ratio", "ratio");
      ("campaign.slices", "count");
      ("store.records", "count");
      ("store.journal_bytes", "bytes");
    ]

let compute ~(spans : Trace.span list) ~(traced : Workloads.tally list)
    ~(untraced : Workloads.tally list) ~(gc : gc list)
    ~(setups : (float * float * int) list) =
  let by_id = Hashtbl.create 4096 in
  List.iter (fun (s : Trace.span) -> Hashtbl.replace by_id s.id s) spans;
  let rec in_round (s : Trace.span) =
    s.name = "round"
    ||
    match Hashtbl.find_opt by_id s.parent with
    | Some p -> in_round p
    | None -> false
  in
  let spans = List.filter in_round spans in
  let parent_name (s : Trace.span) =
    match Hashtbl.find_opt by_id s.parent with Some p -> p.name | None -> ""
  in
  let named n = List.filter (fun (s : Trace.span) -> s.name = n) spans in
  let total l = List.fold_left (fun a s -> a + Trace.duration s) 0 l in
  (* the rounds' own timed walls: a round span also covers the output
     checks that follow the timed work *)
  let wall = List.fold_left (fun a t -> a +. t.Workloads.t_wall) 0. traced in
  let share ns = Trace.seconds_of_ns ns /. wall in
  let cells = named "cell" in
  let slices = named "slice" in
  (* a campaign cell's time is the sum of its slices within one round *)
  let slice_cells =
    let t = Hashtbl.create 512 in
    List.iter
      (fun (s : Trace.span) ->
        let k = (s.parent, s.cell) in
        Hashtbl.replace t k
          (Trace.duration s + Option.value ~default:0 (Hashtbl.find_opt t k)))
      slices;
    Hashtbl.fold (fun _ ns acc -> ns :: acc) t []
  in
  let cell_ns = List.map Trace.duration cells @ slice_cells in
  let cell_s = List.map Trace.seconds_of_ns cell_ns in
  let cells_total = List.fold_left ( + ) 0 cell_ns in
  let wrapped =
    List.filter_map
      (fun (s : Trace.span) ->
        Option.map (fun d -> (Trace.duration s, d)) s.decisions)
      cells
  in
  let sum_d f = List.fold_left (fun a (_, d) -> a + f d) 0 wrapped in
  let init = sum_d (fun d -> d.Trace.init.total) in
  let exec = sum_d (fun d -> d.Trace.exec.total) in
  let choose = sum_d (fun d -> d.Trace.choose.total) in
  let decisions = sum_d (fun d -> d.Trace.choose.count) in
  let forced = sum_d (fun d -> d.Trace.forced) in
  let wrapped_ns = List.fold_left (fun a (ns, _) -> a + ns) 0 wrapped in
  let tech_ns t =
    total
      (List.filter
         (fun (s : Trace.span) -> snd (Check.split_id s.cell) = Techniques.name t)
         (cells @ slices))
  in
  let in_programs =
    total (List.filter (fun s -> parent_name s = "program") cells)
  in
  let busy =
    total (List.filter (fun s -> s.Trace.name <> "round" && parent_name s = "round") spans)
  in
  let sum f = List.fold_left (fun a t -> a + f t) 0 traced in
  let steps = sum (fun t -> t.Workloads.steps) in
  let counted = sum (fun t -> t.Workloads.counted) in
  let executions = sum (fun t -> t.Workloads.executions) in
  let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b in
  let gc_median f = Summary.median (List.map f gc) in
  let traced_median =
    Summary.median (List.map (fun t -> t.Workloads.t_wall) traced)
  in
  (* Every round repeats the same items, so a percentile is taken per round
     and the median over rounds reported: pooled samples would move the
     percentile between two items as the number of rounds changes. *)
  let item p =
    1e3
    *. Summary.median
         (List.map (fun t -> Summary.percentile p t.Workloads.t_items) untraced)
  in
  let untraced_median =
    Summary.median (List.map (fun t -> t.Workloads.t_wall) untraced)
  in
  [
    ("trace.wall_s", traced_median);
    ("trace.overhead_ratio", traced_median /. untraced_median);
    (* the untraced rounds' own walls, and the host samples they were
       scaled by (see Host) *)
    ( "host.round_wall_s",
      List.fold_left (fun a t -> a +. t.Workloads.t_wall) 0. untraced
      /. float_of_int (List.length untraced) );
    ( "host.sample_ms",
      Summary.median (List.map (fun t -> mean_ms t.Workloads.t_samples) untraced) );
    (* set-up samples split into the launch (process start and library
       initialisation, which builds the registry) and the workload's own
       set-up *)
    ( "setup.launch_ms",
      1e3 *. Summary.median (List.map (fun (total, own, _) -> total -. own) setups) );
    ("setup.workload_ms", 1e3 *. Summary.median (List.map (fun (_, own, _) -> own) setups));
    ("item.p50_ms", item 0.5);
    ("item.p95_ms", item 0.95);
    ("explore.cell_p50_ms", 1e3 *. Summary.percentile 0.5 cell_s);
    ("explore.cell_p95_ms", 1e3 *. Summary.percentile 0.95 cell_s);
    ("explore.cell_max_s", Summary.percentile 1. cell_s);
    ("explore.ns_per_step", float_of_int cells_total /. float_of_int (max 1 steps));
    ("explore.cells_share", share cells_total);
    ("race.share", share (total (named "race")));
    ("explore.init_share", share init);
    ("explore.choose_share", share choose);
    ("core.exec_share", share (exec - choose));
    ("explore.driver_share", share (wrapped_ns - init - exec));
    ("explore.decisions", float_of_int decisions /. float_of_int (List.length traced));
    ("core.forced_step_ratio", ratio forced decisions);
    ("explore.useful_ratio", ratio counted executions);
    ("parallel.busy_domains", share busy);
    ("fuzz.oracle_self_share", share (total (named "program") - in_programs));
    ("store.resume_share", share (total (named "resume")));
    ("gc.minor_collections", gc_median (fun g -> g.minor));
    ("gc.major_collections", gc_median (fun g -> g.major));
    ("gc.promoted_mwords", gc_median (fun g -> g.promoted /. 1e6));
    ( "core.words_per_step",
      List.fold_left (fun a g -> a +. g.words) 0. gc /. float_of_int (max 1 steps) );
  ]
  @ List.map (fun t -> (tech_metric t, share (tech_ns t))) Techniques.all
