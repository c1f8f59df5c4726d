open Sct_core

type bound =
  | Unbounded
  | Preemption of int
  | Delay of int
  | Variable of int
  | Threads of int

let bound_limit = function
  | Unbounded -> max_int
  | Preemption c | Delay c | Variable c | Threads c -> c

let cost_shape : bound -> Bound_cost.shape = function
  | Unbounded -> Free
  | Preemption _ | Variable _ | Threads _ -> Preemptions
  | Delay _ -> Delays

type level_result = {
  counted : int;
  buggy : int;
  to_first_bug : int option;
  first_bug : Stats.bug_witness option;
  pruned : bool;
  hit_limit : bool;
  hit_deadline : bool;
  complete : bool;
  executions : int;
  steps_executed : int;
  n_threads : int;
  max_enabled : int;
  max_sched_points : int;
}

type frame = {
  mutable chosen : Tid.t;
  mutable rest : Tid.t list;
  mutable f_enabled : Tid.t list;
  mutable f_fp : int;  (** [Runtime.fingerprint f_enabled] *)
}

let fresh_frame () = { chosen = 0; rest = []; f_enabled = []; f_fp = 0 }

(* Growable stack of decision frames. The frame records are preallocated
   (each slot holds a distinct record) and mutated in place, so pushing a
   decision during the millions of executions of an exploration does not
   allocate. It starts small and doubles: a walk holds about its deepest
   path, which matters when many walks are alive at once (one per level
   of iterative bounding, paused campaign cells, the fuzz oracle's
   campaigns). *)
type stack = { mutable frames : frame array; mutable len : int }

let push st ~chosen ~rest ~enabled ~fp =
  if st.len = Array.length st.frames then begin
    let old = st.frames in
    let n = Array.length old in
    st.frames <-
      Array.init (2 * n) (fun i -> if i < n then old.(i) else fresh_frame ())
  end;
  let fr = st.frames.(st.len) in
  fr.chosen <- chosen;
  fr.rest <- rest;
  fr.f_enabled <- enabled;
  fr.f_fp <- fp;
  st.len <- st.len + 1

(* --- the walk: one (bounded) level of the schedule tree ----------------- *)

module Walk = struct
  type t = {
    w_bound : bound;
    w_bound_c : int;
    w_count_exact : int option;
    w_fair : int option;
    w_length : int option;
    w_on_exec : (Runtime.result -> unit) option;
    st : stack;
    mutable replay_len : int;
    mutable depth : int;
    mutable cur_count : int;
    mutable pruned : bool;
    mutable aux_pruned : bool;
    mutable cut_run : bool;
    (* per-run footprint of preemption keys (Variable/Threads bounds):
       [cur_count] is its cardinality *)
    mutable foot : int array;
    mutable foot_len : int;
    (* per-run yield counts by tid (fair bounding only) *)
    mutable yields : int array;
  }

  let make ?count_exact ?fair ?length ?on_exec ~bound () =
    {
      w_bound = bound;
      w_bound_c = bound_limit bound;
      w_count_exact = count_exact;
      w_fair = fair;
      w_length = length;
      w_on_exec = on_exec;
      st = { frames = Array.init 16 (fun _ -> fresh_frame ()); len = 0 };
      replay_len = 0;
      depth = 0;
      cur_count = 0;
      pruned = false;
      aux_pruned = false;
      cut_run = false;
      foot = Array.make 16 0;
      foot_len = 0;
      yields = Array.make 8 0;
    }

  (* Per-run footprint membership: linear scan over a handful of keys. The
     footprints of the iterated footprint bounds (Variable/Threads) are at
     most the bound level + 1 long, tiny by construction. *)
  let foot_mem w key =
    let rec go i = i < w.foot_len && (w.foot.(i) = key || go (i + 1)) in
    go 0

  let foot_add w key =
    if w.foot_len = Array.length w.foot then begin
      let old = w.foot in
      w.foot <- Array.make (2 * Array.length old) 0;
      Array.blit old 0 w.foot 0 (Array.length old)
    end;
    w.foot.(w.foot_len) <- key;
    w.foot_len <- w.foot_len + 1

  (* The footprint key a preemption at this decision charges: the shared
     object the preempted thread was about to touch (Variable bounding) or
     the preempted thread itself (Threads bounding). *)
  let foot_key w (ctx : Runtime.ctx) =
    match (w.w_bound, ctx.c_last) with
    | Variable _, Some l -> Runtime.pending_obj_id ctx.c_rt l
    | Threads _, Some l -> l
    | _ -> -1

  (* How the decision in progress charges its children. A footprint bound
     charges a preemption only the first time its key enters this run's
     footprint, so the cost of a path is the cardinality of its footprint —
     path-determined, hence monotone in the bound. The key is the same for
     every child of a decision, so a decision whose key the footprint
     already holds is free. *)
  let shape w (ctx : Runtime.ctx) =
    match w.w_bound with
    | (Variable _ | Threads _) when foot_mem w (foot_key w ctx) ->
        Bound_cost.Free
    | b -> cost_shape b

  (* Commit the chosen decision's bound cost (recording the footprint key
     when it is new). *)
  let commit_count w (ctx : Runtime.ctx) t =
    let d = Bound_cost.cost (shape w ctx) ctx t in
    (match w.w_bound with
    | (Variable _ | Threads _) when d > 0 -> foot_add w (foot_key w ctx)
    | _ -> ());
    w.cur_count <- w.cur_count + d

  let yield_count w t = if t < Array.length w.yields then w.yields.(t) else 0

  (* Record the chosen decision's yield, growing the per-tid counts on
     demand. Only called when fair bounding is on. *)
  let note_yield w (ctx : Runtime.ctx) t =
    if Runtime.pending_is_yield ctx.c_rt t then begin
      if t >= Array.length w.yields then begin
        let old = w.yields in
        let n = max (2 * Array.length old) (t + 1) in
        w.yields <- Array.make n 0;
        Array.blit old 0 w.yields 0 (Array.length old)
      end;
      w.yields.(t) <- w.yields.(t) + 1
    end

  let least_yields w (ctx : Runtime.ctx) =
    let m = ref max_int in
    for tid = 0 to ctx.c_n_threads - 1 do
      if Runtime.thread_live ctx.c_rt tid then m := min !m (yield_count w tid)
    done;
    !m

  (* Fair bounding admits a yield by [t] only while its yield count stays
     within [b] of the least-yielding live thread — so a thread spinning in
     a yield loop is forced to let the threads it waits on run. Non-yield
     operations are never restricted. [least] holds that minimum for the
     decision in progress, [-1] until the first yielding candidate needs
     it, so one decision scans the live threads at most once. *)
  let fair_ok w (ctx : Runtime.ctx) b ~least t =
    (not (Runtime.pending_is_yield ctx.c_rt t))
    ||
    (if !least < 0 then least := least_yields w ctx;
     yield_count w t + 1 - !least <= b)

  let cut w =
    w.aux_pruned <- true;
    w.cut_run <- true;
    raise Runtime.Cut

  let begin_run w =
    w.depth <- 0;
    w.cur_count <- 0;
    w.cut_run <- false;
    w.foot_len <- 0;
    if w.w_fair <> None then Array.fill w.yields 0 (Array.length w.yields) 0

  let choose w (ctx : Runtime.ctx) =
    let i = w.depth in
    (* length bounding: schedules of length exactly [l] are still admitted;
       asking for decision [l] means the run would exceed it *)
    (match w.w_length with Some l when i >= l -> cut w | _ -> ());
    w.depth <- i + 1;
    if i < w.replay_len then begin
      let fr = w.st.frames.(i) in
      if fr.f_fp <> ctx.c_enabled_fp then
        failwith
          (Printf.sprintf
             "Sct_explore.Dfs: nondeterministic program: enabled set \
              mismatch at decision %d (is the program's state created \
              inside its closure?)"
             i);
      commit_count w ctx fr.chosen;
      if w.w_fair <> None then note_yield w ctx fr.chosen;
      fr.chosen
    end
    else begin
      match ctx.c_enabled with
      | [ t ] ->
          (* the only child; its cost is 0, so it is always in bound —
             but fair bounding may still cut an unaccompanied yield loop *)
          (match w.w_fair with
          | Some b ->
              if not (fair_ok w ctx b ~least:(ref (-1)) t) then cut w;
              note_yield w ctx t
          | None -> ());
          push w.st ~chosen:t ~rest:[] ~enabled:ctx.c_enabled
            ~fp:ctx.c_enabled_fp;
          t
      | enabled -> (
          let in_bound, bound_cut =
            Bound_cost.candidates (shape w ctx)
              ~budget:(w.w_bound_c - w.cur_count) ~n:ctx.c_n_threads
              ~last:ctx.c_last ~enabled
          in
          (* attribute the shortfall: a structural-bound cut climbs
             iterated-bounding levels ([pruned]); a fair cut only clears
             completeness ([aux_pruned]) — no larger structural bound
             would restore the filtered children *)
          if bound_cut then w.pruned <- true;
          let allowed =
            match w.w_fair with
            | None -> in_bound
            | Some b ->
                let least = ref (-1) in
                let allowed = List.filter (fair_ok w ctx b ~least) in_bound in
                if List.compare_lengths allowed in_bound < 0 then
                  w.aux_pruned <- true;
                allowed
          in
          match allowed with
          | [] ->
              (* A zero-cost child always exists within any structural
                 bound (see DESIGN), so only the fair filter can empty the
                 list: every enabled thread is an over-bound yield.
                 Abandon the execution. *)
              w.cut_run <- true;
              raise Runtime.Cut
          | t :: rest ->
              push w.st ~chosen:t ~rest ~enabled ~fp:ctx.c_enabled_fp;
              commit_count w ctx t;
              if w.w_fair <> None then note_yield w ctx t;
              t)
    end

  (* Drop exhausted frames; advance the deepest frame with an untried
     alternative. Returns false when the tree is exhausted. *)
  let backtrack w =
    let st = w.st in
    let rec drop () =
      if st.len = 0 then false
      else
        let top = st.frames.(st.len - 1) in
        match top.rest with
        | [] ->
            st.len <- st.len - 1;
            drop ()
        | t :: rest ->
            top.chosen <- t;
            top.rest <- rest;
            true
    in
    let more = drop () in
    w.replay_len <- st.len;
    more

  let counts w (res : Runtime.result) =
    let exact =
      match w.w_bound with
      | Unbounded | Preemption _ -> res.r_pc
      | Delay _ -> res.r_dc
      (* footprint cardinality is path-dependent, so it is read off the
         walk's own accounting at the terminal, not the result record *)
      | Variable _ | Threads _ -> w.cur_count
    in
    match w.w_count_exact with None -> true | Some c -> exact = c

  (* Observe one terminal execution: report it to [on_exec], decide
     whether the schedule counts, and advance the walk — it is over when no
     untried alternative remains. Backtracking eagerly (before the driver's
     budget check) is harmless: it only mutates the decision stack, which
     is dropped when the campaign stops. *)
  let on_terminal w (res : Runtime.result) =
    (match w.w_on_exec with None -> () | Some f -> f res);
    let cut = w.cut_run in
    let v_counts = (not cut) && counts w res in
    { Strategy.v_counts; v_phase_over = not (backtrack w); v_cut = cut }
end

(* --- the walk interface and the front-end -------------------------------- *)

let walk ?count_exact ?fair ?length ?on_exec ~bound () : Strategy.walk =
  let w = Walk.make ?count_exact ?fair ?length ?on_exec ~bound () in
  {
    begin_run = (fun () -> Walk.begin_run w);
    choose = Walk.choose w;
    on_terminal = (fun res -> Walk.on_terminal w res);
    bound_cut = (fun () -> w.pruned);
    filter_cut = (fun () -> w.aux_pruned);
  }

let explore ?promote ?max_steps ?count_exact ?on_schedule ?record_decisions
    ?deadline ~bound ~limit program =
  let w = walk ?count_exact ~bound () in
  let s =
    Driver.explore ?promote ?max_steps ?record_decisions ?on_schedule
      ?deadline ~limit
      (Strategy.of_walk ~technique:"DFS" w)
      program
  in
  {
    counted = s.Stats.total;
    buggy = s.Stats.buggy;
    to_first_bug = s.Stats.to_first_bug;
    first_bug = s.Stats.first_bug;
    pruned = w.bound_cut ();
    hit_limit = s.Stats.hit_limit;
    hit_deadline = s.Stats.hit_deadline;
    complete = s.Stats.complete;
    executions = s.Stats.executions;
    steps_executed = s.Stats.steps_executed;
    n_threads = s.Stats.n_threads;
    max_enabled = s.Stats.max_enabled;
    max_sched_points = s.Stats.max_sched_points;
  }
