open Sct_core

type mode = Sleep | Dpor | Dpor_sleep

let mode_name = function
  | Sleep -> "sleep"
  | Dpor -> "dpor"
  | Dpor_sleep -> "dpor+sleep"

let of_mode_name s =
  match String.lowercase_ascii s with
  | "sleep" -> Some Sleep
  | "dpor" -> Some Dpor
  | "dpor+sleep" | "both" -> Some Dpor_sleep
  | _ -> None

let valid_mode_names = [ "sleep"; "dpor"; "dpor+sleep" ]

let parse_mode s =
  match of_mode_name s with
  | Some m -> Ok m
  | None ->
      Error
        (Printf.sprintf "unknown POR mode: %s (valid: %s)" s
           (String.concat ", " valid_mode_names))

let op_of enabled t =
  match List.assoc_opt t enabled with
  | Some op -> op
  | None -> invalid_arg "Sct_explore.Por: thread not in enabled set"

(* The child's sleep set: parent sleep plus explored siblings, minus
   everything woken by the chosen operation. *)
let advance_sleep sleep done_ chosen_op =
  List.filter
    (fun (_, op) -> not (Op_depend.dependent chosen_op op))
    (sleep @ done_)

(* --- the reduction walk: one (bounded) level of the schedule tree ------- *)

module Walk = struct
  type frame = {
    mutable chosen : Tid.t;
    mutable todo : Tid.t list;
        (** children still to explore (added respecting the sleep set) *)
    mutable wake : Tid.t list;
        (** conservative backtracking points: explored {e ignoring} the
            sleep set, restoring soundness under a finite bound *)
    mutable done_ : (Tid.t * Op.t) list;  (** explored children, with ops *)
    mutable via_wake : bool;
        (** [chosen] was taken from [wake]: the child is explored with an
            {e empty} sleep set, because a sleeping thread's covering
            execution may itself have been cut by the bound *)
    mutable woke_all : bool;
        (** a bound-cut backtrack add already promoted every in-bound
            sibling to [wake]; later cut adds at this frame are no-ops *)
    f_enabled : (Tid.t * Op.t) list;  (** enabled threads at the node *)
    f_in_bound : Tid.t list;
        (** the enabled threads whose bound cost at this node fits the
            level bound ({!Bound_cost.candidates}) — fixed at node
            creation; the race-driven backtrack adds query it *)
    f_fp : int;  (** [Runtime.fingerprint] of the enabled tids *)
    f_sleep : (Tid.t * Op.t) list;  (** sleep set on entry to the node *)
    f_count : int;  (** bound count (preemptions / delays) on entry *)
    f_last : Tid.t option;  (** the thread that executed the previous step *)
    f_n : int;  (** thread count at the node *)
  }

  let dummy_frame =
    {
      chosen = 0;
      todo = [];
      wake = [];
      done_ = [];
      via_wake = false;
      woke_all = false;
      f_enabled = [];
      f_in_bound = [];
      f_fp = 0;
      f_sleep = [];
      f_count = 0;
      f_last = None;
      f_n = 0;
    }

  type stack = { mutable frames : frame array; mutable len : int }

  let push st fr =
    if st.len = Array.length st.frames then begin
      let bigger = Array.make (2 * st.len) dummy_frame in
      Array.blit st.frames 0 bigger 0 st.len;
      st.frames <- bigger
    end;
    st.frames.(st.len) <- fr;
    st.len <- st.len + 1

  type t = {
    with_sleep : bool;
    with_dpor : bool;
    w_exact : Runtime.result -> int;
        (** the exact bound count a level counts by ([count_exact]) *)
    w_shape : Bound_cost.shape;
    w_bound_c : int;
    w_count_exact : int option;
    w_on_prune : unit -> unit;
    st : stack;
    mutable replay_len : int;
    mutable depth : int;
    mutable cur_count : int;
    mutable cur_sleep : (Tid.t * Op.t) list;
    mutable run_pruned : bool;
        (** the current run crossed a node where every in-bound enabled
            thread slept: it does not count and records no frames *)
    mutable pruned : bool;  (** the bound cut off a reachable reordering *)
    (* DPOR per-execution happens-before state. Accesses are kept per
       (object, thread) as a full history: keeping only the last access
       would shadow the lock-acquire races that make lock-handover
       reorderings reachable (a blocked thread can never be scheduled at
       the inner frames, so the only usable backtrack points are at
       earlier acquires). *)
    clocks : (Tid.t, Sct_race.Vclock.t) Hashtbl.t;
    accesses :
      (int, (Tid.t, (int * Sct_race.Vclock.t * Op.t) list) Hashtbl.t)
      Hashtbl.t;
  }

  let make ?(on_prune = fun () -> ()) ?count_exact ~mode ~bound () =
    let exact : Runtime.result -> int =
      match bound with
      | Dfs.Variable _ | Dfs.Threads _ ->
          (* a footprint's cardinality depends on the path, which the
             reduction restructures *)
          invalid_arg "Sct_explore.Por: footprint bounds are unsupported"
      | Dfs.Unbounded | Dfs.Preemption _ -> fun r -> r.r_pc
      | Dfs.Delay _ -> fun r -> r.r_dc
    in
    let bounded = bound <> Dfs.Unbounded in
    {
      (* Sleep sets alone cannot prune soundly under a finite bound (see
         por.mli): without DPOR's conservative wake-ups, [Sleep] under a
         bound degenerates to the plain bounded walk. *)
      with_sleep =
        (match mode with
        | Dpor -> false
        | Dpor_sleep -> true
        | Sleep -> not bounded);
      with_dpor = (match mode with Sleep -> false | Dpor | Dpor_sleep -> true);
      w_exact = exact;
      w_shape = Dfs.cost_shape bound;
      w_bound_c = Dfs.bound_limit bound;
      w_count_exact = count_exact;
      w_on_prune = on_prune;
      st = { frames = Array.make 16 dummy_frame; len = 0 };
      replay_len = 0;
      depth = 0;
      cur_count = 0;
      cur_sleep = [];
      run_pruned = false;
      pruned = false;
      clocks = Hashtbl.create 16;
      accesses = Hashtbl.create 64;
    }

  let clock_of w t =
    match Hashtbl.find_opt w.clocks t with
    | Some c -> c
    | None -> Sct_race.Vclock.tick Sct_race.Vclock.zero t

  (* Add thread [t] to a backtrack list of frame [j]. Conservative points
     ignore the sleep set (a slept thread's covering execution may have
     been cut by the bound, so it must be re-explorable). A point whose
     own bound cost at [j] exceeds the level bound is recorded as bound
     pruning — the reordering it denotes is only reachable at a higher
     bound level along {e this} prefix — and every in-bound sibling at [j]
     becomes a conservative point: the bound cost of the cut reordering
     depends on the decisions taken between [j] and the race (delay
     counting charges by position in the round-robin order), so an
     interposed independent step can make the same reordering affordable
     deeper in the tree. Exploring the in-bound siblings re-runs race
     discovery below them, which re-derives the cut point at its new,
     possibly cheaper, position. *)
  let add_point w ~conservative j p =
    let fr = w.st.frames.(j) in
    let in_bound t = List.exists (Tid.equal t) fr.f_in_bound in
    let explored t =
      Tid.equal t fr.chosen
      || List.mem_assoc t fr.done_
      || List.exists (Tid.equal t) fr.todo
      || List.exists (Tid.equal t) fr.wake
    in
    let add t =
      let asleep =
        (not conservative) && w.with_sleep && List.mem_assoc t fr.f_sleep
      in
      if (not (explored t)) && not asleep then begin
        if in_bound t then
          if conservative then fr.wake <- t :: fr.wake
          else fr.todo <- t :: fr.todo
        else begin
          w.pruned <- true;
          if not fr.woke_all then begin
            fr.woke_all <- true;
            List.iter
              (fun t ->
                if not (explored t) then fr.wake <- t :: fr.wake)
              fr.f_in_bound
          end
        end
      end
    in
    if List.mem_assoc p fr.f_enabled then add p
    else List.iter (fun (t, _) -> add t) fr.f_enabled

  (* The prior context switch at or before frame [j]: the deepest frame
     whose decision switched away from the thread that executed the
     previous step. When no switch exists the prefix is the zero-cost
     deterministic schedule; fall back to the root decision, which is
     still a point where alternative choices change bound-reachability
     (delay counting charges non-round-robin root choices). *)
  let conservative_index w j =
    let rec scan k =
      if k < 1 then 0
      else
        let fr = w.st.frames.(k) in
        let switched =
          match fr.f_last with
          | None -> true
          | Some l -> not (Tid.equal fr.chosen l)
        in
        if switched then k else scan (k - 1)
    in
    scan j

  (* Add [p] to the backtrack set of frame [j]; if [p] was not enabled
     there, add every enabled thread (Flanagan & Godefroid 2005). Under a
     finite bound, also add the conservative point of BPOR (Coons,
     Musuvathi, McKinley) at the prior context switch: bounding makes the
     non-conservative point insufficient, because alternative decisions
     at the switch change which states are reachable within the bound. *)
  let add_backtrack w j p =
    add_point w ~conservative:false j p;
    if w.w_bound_c <> max_int then
      add_point w ~conservative:true (conservative_index w j) p

  (* DPOR bookkeeping for the op about to execute at frame [i] by [p]. *)
  let dpor_step w i p op =
    let c = ref (clock_of w p) in
    (match op with
    | Op.Join target -> c := Sct_race.Vclock.join !c (clock_of w target)
    | _ -> ());
    (* Race checks are evaluated against the clock as it was before this
       scan: joining during the scan would make a thread's later accesses
       mask the races with its earlier ones. *)
    let before = !c in
    List.iter
      (fun (x, _) ->
        match Hashtbl.find_opt w.accesses x with
        | None -> ()
        | Some per_thread ->
            Hashtbl.iter
              (fun q history ->
                if not (Tid.equal q p) then
                  List.iter
                    (fun (j, cq, oq) ->
                      if Op_depend.dependent op oq then begin
                        (* race: q's access at frame j is concurrent with
                           the current operation *)
                        if
                          j < i
                          && not
                               (Sct_race.Vclock.get cq q
                               <= Sct_race.Vclock.get before q)
                        then add_backtrack w j p;
                        c := Sct_race.Vclock.join !c cq
                      end)
                    history)
              per_thread)
      (Op_depend.footprint op);
    c := Sct_race.Vclock.tick !c p;
    Hashtbl.replace w.clocks p !c;
    List.iter
      (fun (x, _) ->
        let per_thread =
          match Hashtbl.find_opt w.accesses x with
          | Some m -> m
          | None ->
              let m = Hashtbl.create 4 in
              Hashtbl.replace w.accesses x m;
              m
        in
        let history =
          Option.value ~default:[] (Hashtbl.find_opt per_thread p)
        in
        Hashtbl.replace per_thread p ((i, !c, op) :: history))
      (Op_depend.footprint op)

  let dpor_spawned w parent child =
    Hashtbl.replace w.clocks child
      (Sct_race.Vclock.tick (clock_of w parent) child)

  let begin_run w =
    w.depth <- 0;
    w.cur_count <- 0;
    w.cur_sleep <- [];
    w.run_pruned <- false;
    Hashtbl.reset w.clocks;
    Hashtbl.reset w.accesses

  (* Per-decision bookkeeping shared by the replay and expansion paths:
     dependence tracking, sleep propagation, bound accounting. A chosen
     thread originating from a conservative wake-up may itself be in the
     frame's sleep set; its whole subtree is explored with an empty sleep
     set (BPOR: a sleeping thread's justification — "an equivalent
     interleaving is covered elsewhere" — may point at executions the
     bound cut off, so conservative re-exploration must forget it). *)
  let account w i fr (ctx : Runtime.ctx) =
    let op = op_of fr.f_enabled fr.chosen in
    if w.with_dpor then begin
      dpor_step w i fr.chosen op;
      if op = Op.Spawn then dpor_spawned w fr.chosen ctx.c_n_threads
    end;
    if w.with_sleep then
      w.cur_sleep <-
        (if fr.via_wake then []
         else advance_sleep (List.remove_assoc fr.chosen fr.f_sleep) fr.done_ op);
    w.cur_count <- w.cur_count + Bound_cost.cost w.w_shape ctx fr.chosen;
    fr.chosen

  let choose w (ctx : Runtime.ctx) =
    let i = w.depth in
    w.depth <- i + 1;
    if w.run_pruned then
      (* past a sleep-pruned node: follow the zero-cost round-robin child
         to the end of the run without recording anything — the whole
         branch is discarded by [on_terminal] *)
      Replay.round_robin ctx
    else if i < w.replay_len then begin
      let fr = w.st.frames.(i) in
      if fr.f_fp <> ctx.c_enabled_fp then
        failwith
          "Sct_explore.Por: nondeterministic program: enabled set mismatch";
      account w i fr ctx
    end
    else begin
      let rt = ctx.c_rt in
      let pending t =
        match Runtime.pending_op rt t with
        | Some op -> op
        | None -> invalid_arg "Sct_explore.Por: enabled thread without an op"
      in
      let enabled = List.map (fun t -> (t, pending t)) ctx.c_enabled in
      let candidates, cut =
        Bound_cost.candidates w.w_shape ~budget:(w.w_bound_c - w.cur_count)
          ~n:ctx.c_n_threads ~last:ctx.c_last ~enabled:ctx.c_enabled
      in
      if cut then w.pruned <- true;
      let allowed =
        if w.with_sleep then
          List.filter (fun t -> not (List.mem_assoc t w.cur_sleep)) candidates
        else candidates
      in
      match allowed with
      | [] -> (
          (* every in-bound enabled thread is asleep: the branch only
             contains interleavings equivalent to already-explored ones;
             follow the round-robin head, which costs nothing *)
          w.run_pruned <- true;
          match candidates with t :: _ -> t | [] -> assert false)
      | c :: rest ->
          let todo = if w.with_dpor then [] else rest in
          let fr =
            {
              chosen = c;
              todo;
              wake = [];
              done_ = [];
              via_wake = false;
              woke_all = false;
              f_enabled = enabled;
              f_in_bound = candidates;
              f_fp = ctx.c_enabled_fp;
              f_sleep = w.cur_sleep;
              f_count = w.cur_count;
              f_last = ctx.c_last;
              f_n = ctx.c_n_threads;
            }
          in
          push w.st fr;
          account w i fr ctx
    end

  (* Advance the deepest frame with an unexplored child: sleep-respecting
     [todo] entries first, then conservative [wake] entries, which ignore
     the sleep set. *)
  let backtrack w =
    let st = w.st in
    let rec drop () =
      if st.len = 0 then false
      else begin
        let top = st.frames.(st.len - 1) in
        top.done_ <- (top.chosen, op_of top.f_enabled top.chosen) :: top.done_;
        let skip_done t = List.mem_assoc t top.done_ in
        let rec next skip = function
          | [] -> None
          | t :: rest -> if skip t then next skip rest else Some (t, rest)
        in
        let skip_todo t =
          skip_done t || (w.with_sleep && List.mem_assoc t top.f_sleep)
        in
        match next skip_todo top.todo with
        | Some (t, rest) ->
            top.chosen <- t;
            top.todo <- rest;
            top.via_wake <- false;
            true
        | None -> (
            match next skip_done top.wake with
            | Some (t, rest) ->
                top.chosen <- t;
                top.wake <- rest;
                top.via_wake <- true;
                true
            | None ->
                st.len <- st.len - 1;
                drop ())
      end
    in
    let more = drop () in
    w.replay_len <- st.len;
    more

  (* Sleep-pruned runs never count, whatever their exact bound count. *)
  let counts w (res : Runtime.result) =
    (not w.run_pruned)
    &&
    match w.w_count_exact with None -> true | Some c -> w.w_exact res = c

  let on_terminal w (res : Runtime.result) =
    let v_counts = counts w res in
    if w.run_pruned then w.w_on_prune ();
    { Strategy.v_counts; v_phase_over = not (backtrack w); v_cut = false }
end

(* --- the walk interface and the front-end -------------------------------- *)

let walk ?on_prune ?count_exact ~mode ~bound () : Strategy.walk =
  let w = Walk.make ?on_prune ?count_exact ~mode ~bound () in
  {
    begin_run = (fun () -> Walk.begin_run w);
    choose = Walk.choose w;
    on_terminal = (fun res -> Walk.on_terminal w res);
    bound_cut = (fun () -> w.pruned);
    filter_cut = (fun () -> false);
  }

let explore ?(promote = fun _ -> false) ?(max_steps = 100_000)
    ?(bound = Dfs.Unbounded) ~mode ~limit program =
  let pruned = ref 0 in
  let w = walk ~on_prune:(fun () -> incr pruned) ~mode ~bound () in
  let s =
    (* the budget charges executions, counted or not: a reduced walk
       deliberately counts few schedules (see Driver.explore) *)
    Driver.explore ~promote ~max_steps ~max_executions:limit ~limit
      (Strategy.of_walk ~technique:"DFS" w)
      program
  in
  { s with Stats.por_pruned = !pruned }
