open Sct_core

(* The first-class technique interface. See strategy.mli and DESIGN.md §10
   for the contract; this file is deliberately data, one module signature
   and the single-phase strategy over a walk, so every technique and every
   driver layer depends on it without depending on each other. *)

type phase = { ph_bound : int option; ph_new_at_bound : bool }

type finish = {
  f_complete : bool;
  f_bound : int option;
  f_bound_complete : bool;
  f_new_at_bound : bool;
}

type phase_step = Phase of phase | Finished of finish
type verdict = { v_counts : bool; v_phase_over : bool; v_cut : bool }

module type STRATEGY = sig
  val technique : string

  (* declared properties, read by the driver *)
  val tracks_distinct : bool
  val respects_limit : bool

  type state

  val init : unit -> state
  val next_phase : state -> phase_step
  val begin_run : state -> unit
  val listener : state -> (Event.t -> unit) option
  val choose : state -> Runtime.ctx -> Tid.t
  val on_terminal : state -> Runtime.result -> verdict
end

type t = (module STRATEGY)

type walk = {
  begin_run : unit -> unit;
  choose : Runtime.ctx -> Tid.t;
  on_terminal : Runtime.result -> verdict;
  bound_cut : unit -> bool;
  filter_cut : unit -> bool;
}

(* The driver asks for the next phase only after a phase-over verdict, so
   the second call finds the walk exhausted. *)
let of_walk ~technique (w : walk) : t =
  (module struct
    let technique = technique
    let tracks_distinct = false
    let respects_limit = true

    type state = { mutable started : bool }

    let init () = { started = false }

    let next_phase st =
      if st.started then
        Finished
          {
            f_complete = not (w.filter_cut ());
            f_bound = None;
            f_bound_complete = false;
            f_new_at_bound = false;
          }
      else begin
        st.started <- true;
        Phase { ph_bound = None; ph_new_at_bound = false }
      end

    let begin_run _ = w.begin_run ()
    let listener _ = None
    let choose _ = w.choose
    let on_terminal _ res = w.on_terminal res
  end)
