(* The four workloads. Each sets its inputs up once, then runs rounds: one
   round is a fixed amount of user-visible work (a whole study, a fuzz
   campaign over a fixed program set, a campaign plus its resume), timed
   only around calls into the layers' public functions. An untraced round
   on one domain samples the host's speed between its items (see Host). A
   traced round does the same work through the same public functions with
   spans around each call. *)

open Sct_explore
module Bench = Sctbench.Bench
module Pool = Sct_parallel.Pool
module Db = Sct_store.Db

type size = {
  study_limit : int;
  batched_limit : int;
  fuzz_programs : int;
  campaign_limit : int;
  campaign_slice : int;
}

(* One round of each workload takes 2-5 s on an idle 2-core x86-64
   machine, so a 30 s run holds a warm-up round and at least five timed
   rounds. *)
let full =
  {
    study_limit = 200;
    batched_limit = 100;
    fuzz_programs = 150;
    campaign_limit = 100;
    campaign_slice = 25;
  }

let smoke =
  {
    study_limit = 20;
    batched_limit = 20;
    fuzz_programs = 10;
    campaign_limit = 20;
    campaign_slice = 5;
  }

let names = [ "study"; "study-par"; "fuzz"; "campaign" ]

type round = {
  wall : float;  (** seconds, without the host samples' pauses *)
  samples : int list;  (** the host samples taken during the round, ns *)
  items : float list;
      (** seconds per item: a benchmark row, a fuzz program or a
          campaign slice *)
  cells : (string * Stats.t) list;  (** "bench/technique" -> statistics *)
  checked : int;  (** operations checked inside the round *)
  failed : int;
}

(* What a run keeps of a round once its cells are checked: the statistics
   themselves are dropped, so the ledger's own retention does not show in
   the heap it reports. *)
type tally = {
  t_wall : float;
  t_samples : int list;
  t_items : float list;
  schedules : int;  (** counted terminal schedules plus cut runs *)
  steps : int;  (** steps executed plus steps saved by batching *)
  counted : int;
  executions : int;
}

let tally r =
  let sum f = List.fold_left (fun a (_, s) -> a + f s) 0 r.cells in
  {
    t_wall = r.wall;
    t_samples = r.samples;
    t_items = r.items;
    schedules = sum (fun s -> s.Stats.total + s.Stats.cut_runs);
    steps = sum (fun s -> s.Stats.steps_executed + s.Stats.steps_saved);
    counted = sum (fun s -> s.Stats.total);
    executions = sum (fun s -> s.Stats.executions);
  }

type extras = {
  e_metrics : (string * float) list;  (** workload-specific layer metrics *)
  e_cells : (string * Stats.t) list;  (** more cells for the digest check *)
  e_checked : int;
  e_failed : int;
}

type t = {
  options : Techniques.options;
  reference : string option;
      (** the stem of the committed digests of [cells]; [None] when the
          cells are checked inside the round instead *)
  round : unit -> round;
  traced_round : Trace.t -> parent:int -> round;
  prologue : Trace.t -> extras;  (** traced-run extras, before the first round *)
  epilogue : Trace.t -> extras;  (** traced-run extras, after the last round *)
  teardown : unit -> unit;
}

let no_extras _ = { e_metrics = []; e_cells = []; e_checked = 0; e_failed = 0 }
let now = Trace.now_ns
let secs = Trace.seconds_of_ns

(* Consecutive differences of increasing timestamps, in seconds. *)
let gaps points =
  let rec go acc = function
    | a :: (b :: _ as rest) -> go (secs (b - a) :: acc) rest
    | _ -> List.rev acc
  in
  go [] points

let cells_of_rows rows =
  List.concat_map
    (fun (r : Sct_report.Run_data.row) ->
      List.map
        (fun (t, s) -> (Check.cell_id r.bench.Bench.name (Techniques.name t), s))
        r.results)
    rows

let bench name =
  match Sctbench.Registry.by_name name with
  | Some b -> b
  | None -> failwith ("ledger: no benchmark " ^ name)

(* Names of the committed digest files, per limit (see Check). *)
let grid_stem limit = Printf.sprintf "grid-l%d" limit
let batched_stem limit = Printf.sprintf "batched-l%d" limit

let options ~limit ~seed =
  { Techniques.default_options with Techniques.limit; seed }

(* One cell through the timing strategy. With [prefix_batch], [por] and
   [time_limit] off this is exactly what [Techniques.run] does. *)
let explore_cell (o : Techniques.options) ~promote t program =
  let d = Trace.decisions () in
  let start = now () in
  let s =
    Driver.explore ~promote ~max_steps:o.Techniques.max_steps
      ~limit:o.Techniques.limit
      (Trace.timed d (Techniques.strategy ~promote o t program))
      program
  in
  (s, start, now (), d)

(* The prefix-batched executor (prefix_exec) on the cells where shared
   prefixes dominate. Its fork server runs only in a process that never
   spawned a domain, and forking makes its time swing with the host far
   more than any workload's, so these cells are not a workload of their
   own: a traced study runs them before its first round. A fork copies
   the parent's page tables, so after a study round has grown the heap
   the same passes take about fifty times as long. *)
let batched_benches =
  [ "CS.reorder_10_bad"; "CS.reorder_20_bad"; "misc.safestack"; "chess.IWSQWS" ]

let batched_techniques = [ Techniques.DFS; Techniques.IPB; Techniques.IDB ]

let batched_options size ~seed =
  { (options ~limit:size.batched_limit ~seed) with Techniques.prefix_batch = true }

let batched_cell o ~promote t program =
  let start = now () in
  let s = Techniques.run ~promote o t program in
  (s, start, now (), None)

(* Detection, then the three tree walkers, per benchmark. Returns each
   cell with its wall time in ns. *)
let batched_pass ?tr ~parent o run_cell =
  List.concat_map
    (fun name ->
      let b = bench name in
      let s0 = now () in
      let promote =
        Sct_race.Promotion.promote (Techniques.detect_races o b.Bench.program)
      in
      let s1 = now () in
      Option.iter
        (fun tr -> Trace.record tr ~parent ~name:"race" ~cell:b.Bench.name s0 s1)
        tr;
      List.map
        (fun t ->
          let id = Check.cell_id b.Bench.name (Techniques.name t) in
          let s, start, stop, decisions = run_cell ~promote t b.Bench.program in
          Option.iter
            (fun tr ->
              Trace.record tr ?decisions ~parent ~name:"cell" ~cell:id start stop)
            tr;
          (id, s, stop - start))
        batched_techniques)
    batched_benches

(* The fork server, then the re-execution fallback, then the unbatched
   driver, one pass each over the batched cells (spans [pass]);
   [Prefix_exec.note_domains_spawned] switches the process to the
   fallback for good. The fork server's cells must equal the committed
   digests where the seed has them, the fallback must equal the fork
   server exactly, and the unbatched driver must equal it once the step
   counters are recombined. *)
let prefix_exec size ~seed tr =
  if not (Prefix_exec.fork_available ()) then
    failwith "ledger: the fork server is not available";
  let o = batched_options size ~seed in
  let timed_pass name run_cell =
    Trace.within tr ~parent:0 ~name:"pass" ~cell:name (fun parent ->
        batched_pass ~tr ~parent o run_cell)
  in
  let fork = timed_pass "fork" (batched_cell o) in
  Prefix_exec.note_domains_spawned ();
  let fallback = timed_pass "fallback" (batched_cell o) in
  let unbatched =
    timed_pass "unbatched" (fun ~promote t program ->
        let s, start, stop, d =
          explore_cell { o with Techniques.prefix_batch = false } ~promote t program
        in
        (s, start, stop, Some d))
  in
  let committed_checked, committed_failed =
    match Check.read_expected ~stem:(batched_stem size.batched_limit) ~seed with
    | None -> (0, 0)
    | Some table ->
        ( List.length fork,
          Check.against table (List.map (fun (id, s, _) -> (id, s)) fork) )
  in
  let unbatch (s : Stats.t) =
    {
      s with
      Stats.steps_executed = s.Stats.steps_executed + s.Stats.steps_saved;
      steps_saved = 0;
    }
  in
  let same label a b =
    let ok = Check.digest a = Check.digest b in
    if not ok then Printf.eprintf "ledger: %s differs\n%!" label;
    ok
  in
  let pairs_failed =
    List.fold_left2
      (fun bad (id, f, _) ((_, fb, _), (_, ub, _)) ->
        bad
        + Bool.to_int (not (same (id ^ " fallback") f fb))
        + Bool.to_int (not (same (id ^ " unbatched") (unbatch f) ub)))
      0 fork
      (List.combine fallback unbatched)
  in
  let total cells = List.fold_left (fun a (_, _, ns) -> a + ns) 0 cells in
  let sum f = List.fold_left (fun a (_, s, _) -> a + f s) 0 fork in
  let ratio a b = float_of_int a /. float_of_int (max 1 b) in
  {
    e_metrics =
      [
        ( "prefix_exec.steps_saved_ratio",
          ratio
            (sum (fun s -> s.Stats.steps_saved))
            (sum (fun s -> s.Stats.steps_executed + s.Stats.steps_saved)) );
        ("prefix_exec.fork_over_fallback", ratio (total fork) (total fallback));
        ( "prefix_exec.fallback_over_unbatched",
          ratio (total fallback) (total unbatched) );
      ];
    e_cells = [];
    e_checked = committed_checked + (2 * List.length fork);
    e_failed = committed_failed + pairs_failed;
  }

(* study / study-par: the paper's pipeline, all 55 benchmarks x the five
   paper techniques, through [Suite.run_all] on a pool of [jobs] domains.
   A one-job pool runs its tasks inline and never spawns a domain, so a
   traced study starts with the prefix_exec passes. *)
let grid ~jobs size ~seed =
  let o = options ~limit:size.study_limit ~seed in
  let benches = Sctbench.Registry.all in
  let pool = Pool.create ~jobs in
  (* On one domain [progress] runs between rows and samples the host. On
     two it runs while the pool's domains work, so a sampler process
     samples the host instead. *)
  let round () =
    let h = Host.create () in
    let marks = ref [] in
    let run () =
      let t0 = Host.clock h in
      let rows =
        Sct_parallel.Suite.run_all ~pool
          ~progress:(fun _ ->
            marks := Host.clock h :: !marks;
            if jobs = 1 then Host.sample h)
          o benches
      in
      (rows, t0, Host.clock h)
    in
    let (rows, t0, t1), samples =
      if jobs = 1 then
        let r = run () in
        (r, Host.finish h)
      else Host.with_sampler run
    in
    {
      wall = secs (t1 - t0);
      samples;
      items = gaps (List.rev (t1 :: !marks));
      cells = cells_of_rows rows;
      checked = 0;
      failed = 0;
    }
  in
  (* The same jobs as [Suite.run_all] submits (detection per benchmark,
     then one job per cell), with the cells run through the timing
     strategy. On the one-job pool a task runs when it is submitted. *)
  let traced_round tr ~parent =
    let t0 = now () in
    let detections =
      List.map
        (fun (b : Bench.t) ->
          ( b,
            Pool.submit pool (fun () ->
                let s = now () in
                let d = Techniques.detect_races o b.Bench.program in
                (d, s, now ())) ))
        benches
      |> List.map (fun ((b : Bench.t), fut) ->
             let d, s, e = Pool.await fut in
             Trace.record tr ~parent ~name:"race" ~cell:b.Bench.name s e;
             (b, d))
    in
    let pending =
      List.map
        (fun ((b : Bench.t), d) ->
          let promote = Sct_race.Promotion.promote d in
          ( b,
            List.map
              (fun t ->
                ( t,
                  Pool.submit pool (fun () ->
                      explore_cell o ~promote t b.Bench.program) ))
              Techniques.all_paper ))
        detections
    in
    let cells =
      List.concat_map
        (fun ((b : Bench.t), futs) ->
          List.map
            (fun (t, fut) ->
              let s, start, stop, d = Pool.await fut in
              let id = Check.cell_id b.Bench.name (Techniques.name t) in
              Trace.record tr ~parent ~name:"cell" ~cell:id ~decisions:d start
                stop;
              (id, s))
            futs)
        pending
    in
    {
      wall = secs (now () - t0);
      samples = [];
      items = [];
      cells;
      checked = 0;
      failed = 0;
    }
  in
  {
    options = o;
    reference = Some (grid_stem size.study_limit);
    round;
    traced_round;
    prologue = (if jobs = 1 then prefix_exec size ~seed else no_extras);
    epilogue = no_extras;
    teardown = (fun () -> Pool.shutdown pool);
  }

(* fuzz: generated programs, each checked by the differential oracle
   (eleven techniques plus the reduction cross-checks). The programs are
   those of fuzz campaign 0, generated and compiled during set-up; the
   seed drives the oracle's randomised techniques and race detection. A
   seed-dependent program set would make the work of a round vary from
   seed to seed by more than the bounds: per-program cost is heavy-tailed. *)
let fuzz size ~seed =
  let cfg = Sct_fuzz.Oracle.default_config in
  let programs =
    List.init size.fuzz_programs (fun index ->
        let gen_seed = Sct_fuzz.Gen.derive_seed ~campaign_seed:0 ~index in
        ( Printf.sprintf "fuzz.%d" index,
          Sct_fuzz.Gen.derive_seed ~campaign_seed:seed ~index,
          Sct_fuzz.Compile.program (Sct_fuzz.Gen.generate ~seed:gen_seed ()) ))
  in
  let run ?tr ~parent () =
    let h = Host.create () in
    let t0 = Host.clock h in
    let cells = ref [] in
    let failed = ref 0 in
    let check_one pid (name, pseed, program) =
      let wrap base t =
        let start = now () in
        let s = base t in
        let id = Check.cell_id name (Techniques.name t) in
        Option.iter
          (fun tr ->
            Trace.record tr ~parent:pid ~name:"cell" ~cell:id start (now ()))
          tr;
        cells := (id, s) :: !cells;
        s
      in
      match Sct_fuzz.Oracle.check ~wrap cfg ~seed:pseed program with
      | [] -> ()
      | violations ->
          incr failed;
          List.iter
            (fun v ->
              Format.eprintf "ledger: %s: %a@." name
                Sct_fuzz.Oracle.pp_violation v)
            violations
      | exception e ->
          incr failed;
          Printf.eprintf "ledger: %s raised %s\n%!" name (Printexc.to_string e)
    in
    let items =
      List.map
        (fun ((name, _, _) as p) ->
          if tr = None then Host.sample h;
          let start = Host.clock h in
          (match tr with
          | None -> check_one 0 p
          | Some tr ->
              Trace.within tr ~parent ~name:"program" ~cell:name (fun pid ->
                  check_one pid p));
          secs (Host.clock h - start))
        programs
    in
    let t1 = Host.clock h in
    {
      wall = secs (t1 - t0);
      samples = (if tr = None then Host.finish h else []);
      items;
      cells = List.rev !cells;
      checked = List.length programs;
      failed = !failed;
    }
  in
  {
    options = options ~limit:cfg.Sct_fuzz.Oracle.limit ~seed;
    reference = None;
    round = (fun () -> run ~parent:0 ());
    traced_round = (fun tr ~parent -> run ~tr ~parent ());
    prologue = no_extras;
    epilogue = no_extras;
    teardown = ignore;
  }

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

(* campaign: a uniform sliced campaign over the paper grid on a fresh
   store, then a resume of the finished store, which executes nothing. *)
let campaign size ~seed =
  let o = options ~limit:size.campaign_limit ~seed in
  let benches = Sctbench.Registry.all in
  let grid = Sct_campaign.Cell.grid o benches in
  let pool = Pool.create ~jobs:1 in
  let tmp = Filename.concat ".ledger" (Printf.sprintf "tmp-%d" (Unix.getpid ())) in
  let stores = ref 0 in
  let journal = ref (0, 0) in
  let slices = ref 0 in
  let campaign_ns = ref [] in
  let run ?tr ~parent () =
    incr stores;
    let dir = Filename.concat tmp (string_of_int !stores) in
    let h = Host.create () in
    let sample () = if tr = None then Host.sample h in
    let marks = ref [] in
    let on_slice c _ =
      marks := (Sct_campaign.Cell.name c, Host.clock h) :: !marks;
      sample ()
    in
    let t0 = Host.clock h in
    let run_campaign span =
      let db = Db.open_ ~dir in
      let outcome =
        Sct_campaign.Orchestrator.run ~slice:size.campaign_slice ~on_slice ~pool
          ~db grid
      in
      if outcome.Sct_campaign.Orchestrator.finished <> outcome.cells then
        failwith "ledger: the campaign left cells unfinished";
      let cells =
        List.map
          (fun (c : Sct_campaign.Cell.t) ->
            match Db.find db c.Sct_campaign.Cell.key with
            | Some e -> (Sct_campaign.Cell.name c, e.Db.e_stats)
            | None -> failwith ("ledger: no finished record for " ^ Sct_campaign.Cell.name c))
          grid
      in
      Db.close db;
      Option.iter
        (fun tr ->
          ignore
            (List.fold_left
               (fun start (cell, stop) ->
                 Trace.record tr ~parent:span ~name:"slice" ~cell start stop;
                 stop)
               t0 (List.rev !marks)))
        tr;
      cells
    in
    let resume () =
      let db = Db.open_ ~dir in
      let rows =
        Sct_report.Run_data.run_all ~store:db ~progress:(fun _ -> sample ()) o benches
      in
      Db.close db;
      cells_of_rows rows
    in
    let cells, resumed =
      match tr with
      | None ->
          let cells = run_campaign 0 in
          (cells, resume ())
      | Some tr ->
          let c0 = now () in
          let cells =
            Trace.within tr ~parent ~name:"campaign" ~cell:"campaign" run_campaign
          in
          campaign_ns := (now () - c0) :: !campaign_ns;
          (cells, Trace.within tr ~parent ~name:"resume" ~cell:"resume" (fun _ -> resume ()))
    in
    let t1 = Host.clock h in
    let failed =
      List.fold_left2
        (fun bad (id, s) (id', s') ->
          if id = id' && Check.digest s = Check.digest s' then bad
          else begin
            Printf.eprintf "ledger: resumed %s differs from the campaign\n%!" id';
            bad + 1
          end)
        0 cells resumed
    in
    let path = Filename.concat dir "journal.jsonl" in
    let records =
      In_channel.with_open_bin path In_channel.input_lines |> List.length
    in
    journal := (records, (Unix.stat path).Unix.st_size);
    slices := List.length !marks;
    rm_rf dir;
    {
      wall = secs (t1 - t0);
      samples = (if tr = None then Host.finish h else []);
      items = gaps (t0 :: List.rev_map snd !marks);
      cells;
      checked = List.length resumed;
      failed;
    }
  in
  (* The one-shot study at the same limit: the campaign's overhead is
     measured against it, and its cells must equal the campaign's. *)
  let epilogue _ =
    let t0 = now () in
    let rows = Sct_parallel.Suite.run_all ~pool o benches in
    let one_shot = now () - t0 in
    let records, bytes = !journal in
    {
      e_metrics =
        [
          ( "campaign.overhead_ratio",
            Summary.median
              (List.map
                 (fun ns -> float_of_int ns /. float_of_int one_shot)
                 !campaign_ns) );
          ("campaign.slices", float_of_int !slices);
          ("store.records", float_of_int records);
          ("store.journal_bytes", float_of_int bytes);
        ];
      e_cells = cells_of_rows rows;
      e_checked = 0;
      e_failed = 0;
    }
  in
  {
    options = o;
    reference = Some (grid_stem size.campaign_limit);
    round = (fun () -> run ~parent:0 ());
    traced_round = (fun tr ~parent -> run ~tr ~parent ());
    prologue = no_extras;
    epilogue;
    teardown =
      (fun () ->
        Pool.shutdown pool;
        rm_rf tmp);
  }

let setup size ~seed = function
  | "study" -> grid ~jobs:1 size ~seed
  | "study-par" -> grid ~jobs:2 size ~seed
  | "fuzz" -> fuzz size ~seed
  | "campaign" -> campaign size ~seed
  | w ->
      invalid_arg
        (Printf.sprintf "unknown workload %S (one of: %s)" w
           (String.concat ", " names))
