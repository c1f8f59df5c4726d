open Sct_explore
module Outcome = Sct_core.Outcome
module Schedule = Sct_core.Schedule
module Runtime = Sct_core.Runtime

type config = {
  limit : int;
  max_steps : int;
  race_runs : int;
  prefix_batch : bool;
  por : Por.mode option;
  techniques : Techniques.t list;
}

let default_config =
  {
    limit = 500;
    max_steps = 5_000;
    race_runs = 5;
    prefix_batch = false;
    por = None;
    techniques = Techniques.all;
  }

type violation = { v_invariant : string; v_detail : string }

let pp_violation fmt v =
  Format.fprintf fmt "[%s] %s" v.v_invariant v.v_detail

type runner = Techniques.t -> Stats.t

let promote_all _ = true

(* The sub-budget of the reference campaigns and the POR cross-checks: they
   run on a slice of the campaign budget. *)
let sub_limit limit = min limit 200

let check ?(wrap = fun r -> r) cfg ~seed program =
  let violations = ref [] in
  let fail inv fmt =
    Format.kasprintf
      (fun detail ->
        violations := { v_invariant = inv; v_detail = detail } :: !violations)
      fmt
  in
  let require inv cond fmt =
    Format.kasprintf
      (fun detail ->
        if not cond then
          violations := { v_invariant = inv; v_detail = detail } :: !violations)
      fmt
  in
  let o =
    {
      Techniques.default_options with
      Techniques.limit = cfg.limit;
      seed;
      max_steps = cfg.max_steps;
      race_runs = cfg.race_runs;
      prefix_batch = cfg.prefix_batch;
      por = cfg.por;
    }
  in
  let detection = Techniques.detect_races o program in
  let promote = Sct_race.Promotion.promote detection in
  (* The shard-merge and axes-unbounded checks compare against a campaign
     at the sub-budget [m] with the options of [o_sub]. Where those equal
     the main campaign's options, [base] advances the main session to [m]
     first and keeps that reference (the session law makes it a fresh run
     at [m]); it keeps it beneath [wrap], so an injected fault never
     reaches it. *)
  let m = sub_limit cfg.limit in
  let o_sub =
    { o with Techniques.limit = m; prefix_batch = false; por = None }
  in
  let keeps_reference = function
    | Techniques.Rand | Techniques.PCT | Techniques.SURW -> true
    | Techniques.IPB | Techniques.DFS ->
        cfg.por = None && not cfg.prefix_batch
    | _ -> false
  in
  let references = ref [] in
  let base : runner =
   fun t ->
    let advance = Techniques.session ~promote o t program in
    if keeps_reference t then
      references := (t, advance ~limit:m) :: !references;
    advance ~limit:cfg.limit
  in
  let reference t =
    match List.assoc_opt t !references with
    | Some s -> s
    | None -> Techniques.run ~promote o_sub t program
  in
  let runner = wrap base in
  let stats = List.map (fun t -> (t, runner t)) cfg.techniques in
  let stat t = List.assoc_opt t stats in
  let selected t = List.mem t cfg.techniques in
  let tname t = Techniques.name t in

  (* ---- per-technique schedule-count algebra --------------------------- *)
  List.iter
    (fun (t, (s : Stats.t)) ->
      let n = tname t in
      require "algebra" (s.Stats.buggy >= 0 && s.Stats.buggy <= s.Stats.total)
        "%s: buggy=%d outside [0, total=%d]" n s.Stats.buggy s.Stats.total;
      require "algebra"
        (s.Stats.buggy > 0 = (s.Stats.first_bug <> None))
        "%s: buggy=%d inconsistent with first_bug presence" n s.Stats.buggy;
      (match (s.Stats.to_first_bug, s.Stats.first_bug) with
      | Some i, Some _ ->
          require "algebra"
            (i >= 1 && i <= s.Stats.total)
            "%s: to_first_bug=%d outside [1, total=%d]" n i s.Stats.total
      | None, None -> ()
      | Some i, None ->
          fail "algebra" "%s: to_first_bug=%d without a witness" n i
      | None, Some _ -> fail "algebra" "%s: witness without to_first_bug" n);
      if t <> Techniques.Maple then begin
        require "algebra"
          (s.Stats.total + s.Stats.cut_runs <= cfg.limit)
          "%s: total=%d + cuts=%d exceeds the budget %d" n s.Stats.total
          s.Stats.cut_runs cfg.limit;
        (* reduced campaigns also budget raw executions (see
           Driver.explore), so under [por] the limit may be hit with fewer
           counted schedules than the budget; cut executions (fair/length
           bounding) charge the budget the same way without counting *)
        require "algebra"
          ((not s.Stats.hit_limit)
          || s.Stats.total + s.Stats.cut_runs = cfg.limit
          || (cfg.por <> None && s.Stats.executions = cfg.limit))
          "%s: hit_limit with total=%d + cuts=%d <> limit=%d (executions=%d)"
          n s.Stats.total s.Stats.cut_runs cfg.limit s.Stats.executions
      end;
      (* only the execution-level filters may abandon runs *)
      (match t with
      | Techniques.Fair | Techniques.Length -> ()
      | _ ->
          require "algebra" (s.Stats.cut_runs = 0)
            "%s: cut_runs=%d on a technique with no execution-level filter"
            n s.Stats.cut_runs);
      (match Stats.distinct s with
      | None -> ()
      | Some d ->
          require "algebra"
            (d <= s.Stats.total && (s.Stats.total = 0) = (d = 0))
            "%s: distinct=%d inconsistent with total=%d" n d s.Stats.total);
      require "algebra" (not s.Stats.hit_deadline)
        "%s: hit_deadline on a deadline-free campaign" n;
      (* bounded techniques: the witness's own count is the level where it
         was found *)
      match (t, s.Stats.first_bug) with
      | Techniques.IPB, Some w ->
          require "algebra"
            (s.Stats.bound = Some w.Stats.w_pc)
            "IPB: bound=%s but witness pc=%d"
            (match s.Stats.bound with
            | None -> "None"
            | Some b -> string_of_int b)
            w.Stats.w_pc
      | Techniques.IDB, Some w ->
          require "algebra"
            (s.Stats.bound = Some w.Stats.w_dc)
            "IDB: bound=%s but witness dc=%d"
            (match s.Stats.bound with
            | None -> "None"
            | Some b -> string_of_int b)
            w.Stats.w_dc
      | _ -> ())
    stats;

  (* ---- every witness replays to the same bug -------------------------- *)
  List.iter
    (fun (t, (s : Stats.t)) ->
      match s.Stats.first_bug with
      | None -> ()
      | Some w -> (
          let n = tname t in
          match
            Replay.replay ~promote ~max_steps:cfg.max_steps
              ~schedule:w.Stats.w_schedule program
          with
          | None ->
              fail "witness-replay" "%s: witness schedule is infeasible" n
          | Some r ->
              require "witness-replay"
                (Outcome.is_buggy r.Runtime.r_outcome)
                "%s: witness replays without a bug (outcome %s)" n
                (Outcome.to_string r.Runtime.r_outcome);
              require "witness-replay"
                (Schedule.equal r.Runtime.r_schedule w.Stats.w_schedule)
                "%s: replayed schedule differs from the witness" n;
              (match r.Runtime.r_outcome with
              | Outcome.Bug { bug; by } ->
                  require "witness-replay"
                    (Outcome.bug_equal bug w.Stats.w_bug
                    && Sct_core.Tid.equal by w.Stats.w_by)
                    "%s: replay found a different bug or culprit" n
              | _ -> ());
              require "witness-replay"
                (r.Runtime.r_pc = w.Stats.w_pc && r.Runtime.r_dc = w.Stats.w_dc)
                "%s: replay pc/dc (%d/%d) differ from the witness (%d/%d)" n
                r.Runtime.r_pc r.Runtime.r_dc w.Stats.w_pc w.Stats.w_dc))
    stats;

  (* ---- bug-finding inclusions on exhaustible programs ------------------ *)
  (* The inclusion laws relate DFS, IPB and IDB, so they only apply when all
     three ran under this campaign's technique selection. *)
  let dfs_stat = stat Techniques.DFS in
  (match (dfs_stat, stat Techniques.IPB, stat Techniques.IDB) with
  | Some dfs, Some ipb, Some idb when dfs.Stats.complete ->
      if Stats.found dfs then begin
        require "inclusion" (Stats.found ipb)
          "DFS exhausted the space and found a bug, IPB did not";
        require "inclusion" (Stats.found idb)
          "DFS exhausted the space and found a bug, IDB did not"
      end
      else begin
        List.iter
          (fun (t, s) ->
            require "inclusion" (not (Stats.found s))
              "DFS exhausted a bug-free space but %s reports a bug" (tname t))
          stats;
        (* the count identities assume every technique walks the same full
           tree; a POR-composed campaign reduces each cell differently (the
           per-level conservative wake-ups of BPOR re-explore schedules the
           unbounded reduction sleeps through), so only the bug-freedom
           agreement above applies under [por] *)
        if cfg.por = None then begin
          require "inclusion" ipb.Stats.complete
            "DFS exhausted a bug-free space but IPB did not complete";
          require "inclusion" idb.Stats.complete
            "DFS exhausted a bug-free space but IDB did not complete";
          require "inclusion"
            (ipb.Stats.total = dfs.Stats.total)
            "IPB counted %d schedules on a bug-free exhausted space of %d"
            ipb.Stats.total dfs.Stats.total;
          require "inclusion"
            (idb.Stats.total = dfs.Stats.total)
            "IDB counted %d schedules on a bug-free exhausted space of %d"
            idb.Stats.total dfs.Stats.total
        end
      end
  | _ -> ());

  (* ---- axes agreement: complete bounding-axis campaigns vs full DFS ---- *)
  (* Fair/Length/IVB/ITB report [complete] only when no run was cut and no
     candidate was filtered — the walk provably covered the whole schedule
     space. Such a campaign must agree with exhaustive DFS on bug-freedom,
     and (comparing two plain walks of the same tree) count the same
     schedules. Under [por] the DFS cell is reduced while the axes always
     run plain, so only the bug agreement applies. *)
  (match dfs_stat with
  | Some dfs when dfs.Stats.complete ->
      List.iter
        (fun t ->
          match stat t with
          | Some s when s.Stats.complete ->
              require "axes-agreement"
                (Stats.found s = Stats.found dfs)
                "%s explored the whole space but disagrees with exhaustive \
                 DFS on bug-freedom"
                (tname t);
              if (not (Stats.found dfs)) && cfg.por = None then
                require "axes-agreement"
                  (s.Stats.total = dfs.Stats.total)
                  "%s counted %d schedules on an exhausted bug-free space \
                   of %d"
                  (tname t) s.Stats.total dfs.Stats.total
          | _ -> ())
        [ Techniques.Fair; Techniques.Length; Techniques.IVB; Techniques.ITB ]
  | _ -> ());

  (* ---- axes at an unreachable bound: nothing cut, nothing lost --------- *)
  (* Fair bounding at a bound no yield imbalance can reach admits every
     schedule the plain preemption-bounded walk admits, and length bounding
     at an unreachable cap never cuts: each must be byte-identical to its
     unrestricted counterpart (modulo the technique name) — the no-bug-lost
     direction of the execution-level filters. *)
  if selected Techniques.Fair && selected Techniques.IPB then begin
    let ipb = reference Techniques.IPB in
    let fair =
      Techniques.run ~promote
        { o_sub with Techniques.fair_bound = max_int }
        Techniques.Fair program
    in
    require "axes-unbounded"
      (Stats.equal { fair with Stats.technique = ipb.Stats.technique } ipb)
      "Fair at an unreachable bound differs from plain IPB (%a vs %a)"
      Stats.pp fair Stats.pp ipb
  end;
  if selected Techniques.Length && selected Techniques.DFS then begin
    let dfs = reference Techniques.DFS in
    let len =
      Techniques.run ~promote
        { o_sub with Techniques.length_bound = max_int }
        Techniques.Length program
    in
    require "axes-unbounded"
      (Stats.equal { len with Stats.technique = dfs.Stats.technique } dfs)
      "Length at an unreachable cap differs from plain DFS (%a vs %a)"
      Stats.pp len Stats.pp dfs
  end;

  (* ---- POR vs full DFS, all locations visible -------------------------- *)
  (* A DFS-based cross-check; skipped when the campaign deselected DFS. *)
  let dfs_all =
    if not (selected Techniques.DFS) then None
    else
      Some
        (Dfs.explore ~promote:promote_all ~max_steps:cfg.max_steps
           ~bound:Dfs.Unbounded ~limit:m program)
  in
  (match dfs_all with None -> () | Some dfs_all ->
  if dfs_all.Dfs.complete then
    List.iter
      (fun (mode, mode_name) ->
        let por =
          Por.explore ~promote:promote_all ~max_steps:cfg.max_steps ~mode
            ~limit:m program
        in
        require "por" por.Stats.complete
          "POR(%s) did not complete on a space full DFS exhausted (%d \
           schedules)"
          mode_name dfs_all.Dfs.counted;
        require "por"
          (por.Stats.buggy > 0 = (dfs_all.Dfs.buggy > 0))
          "POR(%s) and full DFS disagree on bug-freedom (POR buggy=%d, DFS \
           buggy=%d)"
          mode_name por.Stats.buggy dfs_all.Dfs.buggy;
        require "por"
          (por.Stats.total <= dfs_all.Dfs.counted)
          "POR(%s) counted %d terminal schedules, more than full DFS's %d"
          mode_name por.Stats.total dfs_all.Dfs.counted;
        require "por" (por.Stats.total >= 1)
          "POR(%s) counted no terminal schedule" mode_name)
      [ (Por.Sleep, "sleep"); (Por.Dpor, "dpor"); (Por.Dpor_sleep, "both") ]);

  (* ---- BPOR under a bound: equivalence with the plain bounded walk ----- *)
  (* The conservative-backtracking soundness law (por.mli): at every bound
     level, the reduced walk of the bounded tree must agree with the plain
     walk on bug-freedom and exhaustion while counting no more schedules.
     All locations are promoted so the reduction sees full dependence
     information. [Sleep] under a finite bound carries no sound pruning and
     must degenerate to the plain walk exactly. *)
  if selected Techniques.DFS then
    List.iter
      (fun bound_of ->
        List.iter
          (fun c ->
            let bound = bound_of c in
            let bname =
              match bound with
              | Dfs.Preemption c -> Printf.sprintf "pb=%d" c
              | Dfs.Delay c -> Printf.sprintf "db=%d" c
              | Dfs.Variable c -> Printf.sprintf "vb=%d" c
              | Dfs.Threads c -> Printf.sprintf "tb=%d" c
              | Dfs.Unbounded -> "unbounded"
            in
            let plain =
              Dfs.explore ~promote:promote_all ~max_steps:cfg.max_steps ~bound
                ~limit:m program
            in
            List.iter
              (fun mode ->
                let mn = Por.mode_name mode in
                let bpor =
                  Por.explore ~promote:promote_all ~max_steps:cfg.max_steps
                    ~bound ~mode ~limit:m program
                in
                require "bpor"
                  (bpor.Stats.total <= plain.Dfs.counted)
                  "BPOR(%s) at %s counted %d schedules, more than the plain \
                   bounded walk's %d"
                  mn bname bpor.Stats.total plain.Dfs.counted;
                if plain.Dfs.complete && not plain.Dfs.hit_limit then begin
                  require "bpor" bpor.Stats.complete
                    "BPOR(%s) did not exhaust the %s tree the plain walk \
                     exhausted (%d schedules)"
                    mn bname plain.Dfs.counted;
                  require "bpor"
                    (bpor.Stats.buggy > 0 = (plain.Dfs.buggy > 0))
                    "BPOR(%s) and the plain walk disagree on bug-freedom at \
                     %s (BPOR buggy=%d, plain buggy=%d)"
                    mn bname bpor.Stats.buggy plain.Dfs.buggy
                end;
                if mode = Por.Sleep then
                  require "bpor"
                    (bpor.Stats.total = plain.Dfs.counted
                    && bpor.Stats.buggy = plain.Dfs.buggy
                    && bpor.Stats.por_pruned = 0)
                    "sleep-mode at %s must degenerate to the plain bounded \
                     walk (counted %d vs %d, buggy %d vs %d, sleep-pruned %d)"
                    bname bpor.Stats.total plain.Dfs.counted bpor.Stats.buggy
                    plain.Dfs.buggy bpor.Stats.por_pruned)
              [ Por.Sleep; Por.Dpor; Por.Dpor_sleep ])
          [ 0; 1; 2 ])
      [ (fun c -> Dfs.Preemption c); (fun c -> Dfs.Delay c) ];

  (* ---- POR-composed campaigns: bug-finding no worse at equal bounds ---- *)
  (* The Strategy-level composition (Techniques.run with [por]): whenever
     both campaigns resolve their space within the budget, the reduced
     IPB/IDB campaign agrees with the plain one on bug-freedom, finds its
     bug at the same bound level, and counts no more schedules. *)
  (let cmode =
     match cfg.por with Some m -> m | None -> Por.Dpor_sleep
   in
   List.iter
     (fun t ->
       let n = tname t in
       let plain = Techniques.run ~promote:promote_all o_sub t program in
       let bpor =
         Techniques.run ~promote:promote_all
           { o_sub with Techniques.por = Some cmode }
           t program
       in
       require "bpor-campaign"
         (bpor.Stats.total <= plain.Stats.total)
         "%s+POR(%s) counted %d schedules, more than plain %s's %d" n
         (Por.mode_name cmode) bpor.Stats.total n plain.Stats.total;
       if
         (not plain.Stats.hit_limit)
         && not bpor.Stats.hit_limit
       then begin
         require "bpor-campaign"
           (Stats.found bpor = Stats.found plain)
           "%s+POR(%s) and plain %s disagree on bug-freedom" n
           (Por.mode_name cmode) n;
         if Stats.found plain then
           require "bpor-campaign"
             (bpor.Stats.bound = plain.Stats.bound)
             "%s+POR(%s) found its bug at bound %s, plain %s at %s" n
             (Por.mode_name cmode)
             (match bpor.Stats.bound with
             | None -> "None"
             | Some b -> string_of_int b)
             n
             (match plain.Stats.bound with
             | None -> "None"
             | Some b -> string_of_int b)
       end)
     (List.filter selected [ Techniques.IPB; Techniques.IDB ]));

  (* ---- bound-level algebra: monotone in c, and DC >= PC ---------------- *)
  (* Also DFS-based: the bounded walks reuse the DFS explorer. *)
  if selected Techniques.DFS then begin
    let walk bound =
      Dfs.explore ~promote ~max_steps:cfg.max_steps ~bound ~limit:cfg.limit
        program
    in
    let counts bound =
      let count c = (walk (bound c)).Dfs.counted in
      let c0 = count 0 in
      let c1 = count 1 in
      (c0, c1, count 2)
    in
    let pc_counts = counts (fun c -> Dfs.Preemption c) in
    let dc_counts = counts (fun c -> Dfs.Delay c) in
    let monotone name (a, b, c) =
      require "bound-algebra"
        (a <= b && b <= c)
        "%s-bounded schedule counts not monotone in the bound: %d, %d, %d"
        name a b c
    in
    monotone "preemption" pc_counts;
    monotone "delay" dc_counts;
    let list (a, b, c) = [ a; b; c ] in
    List.iteri
      (fun c (dc, pc) ->
        require "bound-algebra" (dc <= pc)
          "delay bound %d admits %d schedules, preemption bound %d only %d \
           (DC >= PC violated)"
          c dc c pc)
      (List.combine (list dc_counts) (list pc_counts));
    (* the full-space cap only holds against a plain DFS total: under
       [por] the campaign's DFS is reduced, and a plain bounded count can
       legitimately exceed the reduced full-space count *)
    match dfs_stat with
    | Some dfs when dfs.Stats.complete && cfg.por = None ->
        List.iteri
          (fun c pc ->
            require "bound-algebra"
              (pc <= dfs.Stats.total)
              "preemption bound %d counts %d schedules, beyond the full \
               space's %d"
              c pc dfs.Stats.total)
          (list pc_counts)
    | _ -> ()
  end;

  (* ---- shard-merge determinism for the seeded techniques -------------- *)
  (* One session advanced to half the sub-budget and then to all of it runs
     two half ranges and merges them; that must equal the sequential
     campaign at the sub-budget: what [--jobs 1] prints, and so what the
     merged ranges of [--jobs N] must reproduce. *)
  List.iter
    (fun t ->
      let h = m / 2 in
      let advance = Techniques.session ~promote o t program in
      let (_ : Stats.t) = advance ~limit:h in
      require "shard-merge"
        (Stats.equal (reference t) (advance ~limit:m))
        "%s: half ranges [0,%d)+[%d,%d) do not merge to the sequential \
         campaign at limit %d (the --jobs 1 result)"
        (tname t) h h m m)
    (List.filter selected [ Techniques.Rand; Techniques.PCT; Techniques.SURW ]);

  (* ---- prefix-batch differential: batched == unbatched modulo steps ---- *)
  (* When the campaign above counted batched steps, re-run each tree
     technique on the plain driver: everything but the step counters must be
     byte-identical, and the batched counters must conserve total work
     (executed + saved = the unbatched step count). *)
  if cfg.prefix_batch then
    List.iter
      (fun (t, (s : Stats.t)) ->
        if List.mem t [ Techniques.DFS; Techniques.IPB; Techniques.IDB ]
        then begin
          let n = tname t in
          let plain =
            Techniques.run ~promote
              { o with Techniques.prefix_batch = false }
              t program
          in
          require "prefix-batch"
            (Stats.equal plain
               {
                 s with
                 Stats.steps_executed = plain.Stats.steps_executed;
                 steps_saved = plain.Stats.steps_saved;
               })
            "%s: batched statistics differ from the unbatched driver's" n;
          require "prefix-batch"
            (s.Stats.steps_executed + s.Stats.steps_saved
            = plain.Stats.steps_executed)
            "%s: steps not conserved (batched %d executed + %d saved, \
             unbatched %d executed)"
            n s.Stats.steps_executed s.Stats.steps_saved
            plain.Stats.steps_executed;
          require "prefix-batch" (plain.Stats.steps_saved = 0)
            "%s: the unbatched driver reported saved steps" n
        end)
      stats;

  List.rev !violations
