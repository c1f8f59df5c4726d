open Sct_core

type axis = Preemptions | Delays | Variables | Threads

type t = {
  name : string;
  axis : axis option;
  fair : int option;
  length : int option;
}

let bound_at axis c =
  match axis with
  | Preemptions -> Dfs.Preemption c
  | Delays -> Dfs.Delay c
  | Variables -> Dfs.Variable c
  | Threads -> Dfs.Threads c

(* Por.walk and Prefix_exec restructure the tree, which the fair and
   length filters do not survive; both refuse footprint bounds themselves. *)
let refuse_filters who b =
  if b.fair <> None || b.length <> None then
    invalid_arg
      (Printf.sprintf "Sct_explore.Bounded.%s: %s has a fair or length filter"
         who b.name)

(* The iterative-bounding campaign as a STRATEGY: one phase per bound
   level, each phase a fresh count-exact walk of the whole tree. The level
   progression of the paper (§2, §5):

   - a bug among the level's counted schedules finishes the campaign once
     the level is exhausted (the paper completes the level for worst-case
     analysis; [bound_complete] is true in that case);
   - a level that exhausts without the bound cutting anything has
     explored the whole schedule space ([complete]), unless a filter cut
     executions, which no bound level would restore;
   - otherwise the next level starts, up to [max_levels].

   A reduced walk's [bound_cut] reports bound cut-offs exactly like the
   plain walk (including backtrack points deferred to the next level) and
   never reports sleep-set pruning, which is covered within the level, so
   the progression is the same for both. *)
let levels ~max_levels ~technique (walk_at : int -> Strategy.walk) :
    Strategy.t =
  (module struct
    let technique = technique
    let tracks_distinct = false
    let respects_limit = true

    type state = {
      mutable c : int;
      mutable walk : Strategy.walk;
      mutable found : bool;  (** bug among this level's counted schedules *)
      mutable filtered : bool;  (** some level lost executions to a filter *)
      mutable started : bool;
    }

    let init () =
      { c = 0; walk = walk_at 0; found = false; filtered = false;
        started = false }

    let phase c =
      Strategy.Phase { ph_bound = Some c; ph_new_at_bound = true }

    let next_phase st =
      if not st.started then begin
        st.started <- true;
        phase 0
      end
      else begin
        if st.walk.filter_cut () then st.filtered <- true;
        if st.found || not (st.walk.bound_cut ()) then
          (* the level is exhausted here (the driver consults us only on a
             phase-over verdict), hence bound_complete *)
          Strategy.Finished
            {
              f_complete = (not st.found) && not st.filtered;
              f_bound = Some st.c;
              f_bound_complete = true;
              f_new_at_bound = true;
            }
        else begin
          let c = st.c + 1 in
          if c > max_levels then
            Strategy.Finished
              {
                f_complete = false;
                f_bound = Some c;
                f_bound_complete = false;
                f_new_at_bound = false;
              }
          else begin
            st.c <- c;
            st.walk <- walk_at c;
            phase c
          end
        end
      end

    let begin_run st = st.walk.begin_run ()
    let listener _ = None
    let choose st ctx = st.walk.choose ctx

    let on_terminal st res =
      let v = st.walk.on_terminal res in
      (if v.Strategy.v_counts then
         match res.Runtime.r_outcome with
         | Outcome.Bug _ -> st.found <- true
         | Outcome.Ok | Outcome.Step_limit -> ());
      v
  end)

let strategy ?(max_levels = 64) ?por ?(on_prune = fun () -> ()) b =
  let walk =
    match por with
    | None ->
        fun ?count_exact bound ->
          Dfs.walk ?count_exact ?fair:b.fair ?length:b.length ~bound ()
    | Some mode ->
        refuse_filters "strategy" b;
        fun ?count_exact bound ->
          Por.walk ~on_prune ?count_exact ~mode ~bound ()
  in
  match b.axis with
  | None -> Strategy.of_walk ~technique:b.name (walk Dfs.Unbounded)
  | Some axis ->
      levels ~max_levels ~technique:b.name (fun c ->
          walk ~count_exact:c (bound_at axis c))

(* The same level progression over an abstract per-level walk, for the
   batched executor below: explore level [c] with the remaining budget,
   stop on bug / limit / deadline / unpruned completion, else continue at
   [c + 1]. The driver path above agrees with it level by level; the
   batched-equals-unbatched checks of test/test_prefix_exec.ml and the fuzz
   oracle pin that. *)
let level_loop ?(max_levels = 64) ~technique
    ~(walk : c:int -> limit:int -> Strategy.walk_result) ~limit () =
  let rec level c (acc : Stats.t) =
    if acc.Stats.total >= limit then
      { acc with Stats.bound = Some c; hit_limit = true }
    else if c > max_levels then { acc with Stats.bound = Some c }
    else begin
      let r = walk ~c ~limit:(limit - acc.Stats.total) in
      let acc =
        {
          acc with
          Stats.total = acc.Stats.total + r.Strategy.counted;
          buggy = acc.Stats.buggy + r.Strategy.buggy;
          executions = acc.Stats.executions + r.Strategy.executions;
          steps_executed = acc.Stats.steps_executed + r.Strategy.steps_executed;
          steps_saved = acc.Stats.steps_saved + r.Strategy.steps_saved;
          hit_deadline = acc.Stats.hit_deadline || r.Strategy.hit_deadline;
          n_threads = max acc.Stats.n_threads r.Strategy.n_threads;
          max_enabled = max acc.Stats.max_enabled r.Strategy.max_enabled;
          max_sched_points =
            max acc.Stats.max_sched_points r.Strategy.max_sched_points;
        }
      in
      match r.Strategy.to_first_bug with
      | Some i ->
          (* Bug found at this level; the level has been fully explored
             (unless the limit or the deadline intervened), per the paper's
             method. *)
          {
            acc with
            Stats.bound = Some c;
            bound_complete = r.Strategy.complete;
            to_first_bug = Some (acc.Stats.total - r.Strategy.counted + i);
            new_at_bound = r.Strategy.counted;
            first_bug = r.Strategy.first_bug;
            hit_limit = r.Strategy.hit_limit;
          }
      | None ->
          if r.Strategy.hit_limit then
            {
              acc with
              Stats.bound = Some c;
              bound_complete = false;
              new_at_bound = r.Strategy.counted;
              hit_limit = true;
            }
          else if r.Strategy.hit_deadline then
            {
              acc with
              Stats.bound = Some c;
              bound_complete = false;
              new_at_bound = r.Strategy.counted;
            }
          else if not r.Strategy.pruned then
            {
              acc with
              Stats.bound = Some c;
              bound_complete = true;
              new_at_bound = r.Strategy.counted;
              complete = true;
            }
          else level (c + 1) acc
    end
  in
  level 0 (Stats.base ~technique)

(* The batched campaign: the same walks, each routed through the
   prefix-batching executor. *)
let explore_batched ?promote ?max_steps ?max_levels ?fork ?deadline b ~limit
    program =
  refuse_filters "explore_batched" b;
  let walk ?count_exact bound ~limit =
    Prefix_exec.explore ?promote ?max_steps ?fork ?deadline ?count_exact
      ~bound ~limit program
  in
  match b.axis with
  | None -> Dfs.stats_of ~technique:b.name (walk Dfs.Unbounded ~limit)
  | Some axis ->
      level_loop ?max_levels ~technique:b.name
        ~walk:(fun ~c ~limit -> walk ~count_exact:c (bound_at axis c) ~limit)
        ~limit ()
