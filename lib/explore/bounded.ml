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
    let choose st = st.walk.choose

    let on_terminal st res =
      let v = st.walk.on_terminal res in
      (if v.Strategy.v_counts then
         match res.Runtime.r_outcome with
         | Outcome.Bug _ -> st.found <- true
         | Outcome.Ok | Outcome.Step_limit -> ());
      v
  end)

(* Por.walk restructures the tree, which the fair and length filters do
   not survive (it refuses footprint bounds itself), and it takes no
   per-execution observer. *)
let strategy ?(max_levels = 64) ?por ?(on_prune = fun () -> ()) ?on_walk b =
  let walk =
    match por with
    | None ->
        fun ?count_exact bound ->
          Dfs.walk ?count_exact ?fair:b.fair ?length:b.length
            ?on_exec:(Option.map (fun f -> f ()) on_walk)
            ~bound ()
    | Some mode ->
        if b.fair <> None || b.length <> None || Option.is_some on_walk then
          invalid_arg
            (Printf.sprintf
               "Sct_explore.Bounded.strategy: %s has a fair or length filter \
                or an observer"
               b.name);
        fun ?count_exact bound ->
          Por.walk ~on_prune ?count_exact ~mode ~bound ()
  in
  match b.axis with
  | None -> Strategy.of_walk ~technique:b.name (walk Dfs.Unbounded)
  | Some axis ->
      levels ~max_levels ~technique:b.name (fun c ->
          walk ~count_exact:c (bound_at axis c))
