(** The bound-cost kernel of the systematic walks (paper §2).

    Iterative preemption and delay bounding charge every scheduling
    decision a cost, and a walk may only take the children whose cost
    keeps the schedule within the level bound. Every walk that expands
    decisions under a bound — {!Dfs.walk} and {!Por.walk} — asks this
    module which children fit and what the chosen one costs.

    Two facts about round-robin order ({!Sct_core.Delay.rr_order}) make the
    in-bound children a prefix of that order, found without computing any
    per-thread cost:
    - the [k]-th thread of the order costs exactly [k] delays;
    - every thread but the head costs one preemption if and only if the
      head is the previously scheduled thread; the head costs nothing.

    The costs of a single thread come from the engine's cached enabled bits
    ({!Sct_core.Runtime.preemption_cost}, {!Sct_core.Runtime.delay_cost}).
    {!Sct_core.Preemption.delta} and {!Sct_core.Delay.delays} stay the
    reference definitions the tests compare both against. *)

open Sct_core

(** How a decision charges its children. *)
type shape =
  | Free  (** every child costs nothing (unbounded walks) *)
  | Preemptions
      (** a preemptive context switch costs 1: preemption bounding, and the
          footprint bounds while the switch's key is new to the run *)
  | Delays  (** each enabled thread round-robin skips costs 1 *)

val cost : shape -> Runtime.ctx -> Tid.t -> int
(** The cost of scheduling the enabled thread [t] at the decision in
    progress: O(1) for [Free] and [Preemptions], O(round-robin distance)
    for [Delays]. *)

val candidates :
  shape ->
  budget:int ->
  n:int ->
  last:Tid.t option ->
  enabled:Tid.t list ->
  Tid.t list * bool
(** [candidates shape ~budget ~n ~last ~enabled] is the prefix of
    [Delay.rr_order ~n ~last ~enabled] whose children cost at most
    [budget] (the level bound minus the count so far), paired with whether
    the bound cut any enabled thread — i.e. the list
    [List.filter (fun t -> cost t <= budget) (Delay.rr_order ~n ~last ~enabled)]
    and whether it is shorter than the order. O(|enabled|). *)
