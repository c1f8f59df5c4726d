open Sct_core

(* Run [i] of a campaign depends only on [seed] and [i]: the RNG is
   re-seeded per run, so any contiguous sharding of the run range replays
   the sequential campaign exactly (lib/parallel relies on this). *)

let strategy ?(seed = 0) ?(lo = 0) () : Strategy.t =
  (module struct
    let technique = "Rand"
    let tracks_distinct = true
    let respects_limit = true

    type state = { mutable i : int; mutable rng : Random.State.t }

    let init () = { i = lo; rng = Random.State.make [| 0 |] }

    (* a single never-ending phase: only the budget or the deadline stops a
       random walk *)
    let next_phase st =
      if st.i > lo then
        Strategy.Finished
          {
            f_complete = false;
            f_bound = None;
            f_bound_complete = false;
            f_new_at_bound = false;
          }
      else Strategy.Phase { ph_bound = None; ph_new_at_bound = false }

    let begin_run st =
      st.rng <- Random.State.make [| seed; st.i |];
      st.i <- st.i + 1

    let listener _ = None
    let choose st ctx = Runtime.uniform_pick st.rng ctx
    let on_terminal _ _ =
      { Strategy.v_counts = true; v_phase_over = false; v_cut = false }
  end)

let explore_shard ?promote ?max_steps ?stop_on_bug ?deadline ~seed ~lo ~hi
    program =
  let s =
    Driver.explore ?promote ?max_steps ?stop_on_bug ?deadline
      ~count_offset:lo ~limit:(hi - lo)
      (strategy ~seed ~lo ())
      program
  in
  (* a random campaign is always budget-truncated, even when it stopped on
     a bug or covers an empty shard *)
  { s with Stats.hit_limit = true }

let explore ?promote ?max_steps ?stop_on_bug ?deadline ~seed ~runs program =
  explore_shard ?promote ?max_steps ?stop_on_bug ?deadline ~seed ~lo:0
    ~hi:runs program

let sharding ?promote ?max_steps ?deadline ~seed program =
  Strategy.Shard_seed
    (fun ~lo ~hi ->
      explore_shard ?promote ?max_steps ?deadline ~seed ~lo ~hi program)
