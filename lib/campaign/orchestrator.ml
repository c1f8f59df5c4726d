module Techniques = Sct_explore.Techniques
module Db = Sct_store.Db

type outcome = { cells : int; finished : int; slices : int }

let check_distinct cells =
  let seen = Hashtbl.create 64 in
  List.iter
    (fun c ->
      match Hashtbl.find_opt seen c.Cell.key with
      | Some other ->
          invalid_arg
            (Printf.sprintf
               "Sct_campaign.Orchestrator.run: cells %s and %s share a \
                fingerprint"
               (Cell.name other) (Cell.name c))
      | None -> Hashtbl.replace seen c.Cell.key c)
    cells

let run ?(policy = Scheduler.Uniform) ?(slice = 500)
    ?(on_slice = fun _ _ -> ()) ~pool ~db cells =
  if slice < 1 then
    invalid_arg "Sct_campaign.Orchestrator.run: slice must be at least 1";
  check_distinct cells;
  let cells = Array.of_list cells in
  let states =
    Array.map
      (fun c -> Option.map Scheduler.state_of_entry (Db.find_any db c.Cell.key))
      cells
  in
  (* one detection phase per benchmark per process; deterministic, so a
     restarted campaign re-derives the same promotion set and racy count
     the journalled slices were explored under *)
  let detections = Hashtbl.create 16 in
  let detection (c : Cell.t) =
    let name = c.Cell.bench.Sctbench.Bench.name in
    match Hashtbl.find_opt detections name with
    | Some d -> d
    | None ->
        let d =
          Techniques.detect_races c.Cell.options c.Cell.bench.Sctbench.Bench.program
        in
        Hashtbl.replace detections name d;
        d
  in
  (* walks of unfinished tree cells, kept alive between their slices *)
  let sessions = Runner.sessions () in
  let granted = ref 0 in
  let rec loop () =
    match Scheduler.pick ~policy states with
    | None -> ()
    | Some i ->
        let c = cells.(i) in
        let det = detection c in
        let promote = Sct_race.Promotion.promote det in
        let racy = List.length det.Sct_race.Promotion.racy in
        let prev = Db.find_any db c.Cell.key in
        let r = Runner.run_slice ~pool ~sessions ~promote ~slice ~prev c in
        Db.record ~progress:r.Runner.progress db ~key:c.Cell.key
          ~bench:c.Cell.bench.Sctbench.Bench.name
          ~technique:(Techniques.name c.Cell.technique)
          ~racy ~options:c.Cell.options r.Runner.stats;
        states.(i) <-
          Some
            {
              Scheduler.s_consumed = r.Runner.progress.Sct_store.Codec.p_consumed;
              s_slices = r.Runner.progress.Sct_store.Codec.p_slices;
              s_coverage = Sct_explore.Stats.coverage r.Runner.stats;
              s_bound = r.Runner.stats.Sct_explore.Stats.bound;
              s_finished = r.Runner.progress.Sct_store.Codec.p_done;
            };
        incr granted;
        on_slice c r.Runner.progress;
        loop ()
  in
  loop ();
  let finished =
    Array.fold_left
      (fun acc st ->
        match st with
        | Some s when s.Scheduler.s_finished -> acc + 1
        | _ -> acc)
      0 states
  in
  { cells = Array.length cells; finished; slices = !granted }
