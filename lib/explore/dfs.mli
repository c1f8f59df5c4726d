(** Stateless depth-first exploration of the schedule space, with optional
    schedule bounding (paper §3, "Maple's systematic mode").

    The walk maintains an explicit stack of scheduling decisions; every
    terminal schedule costs one full re-execution of the program from its
    initial state (stateless model checking). Children at a scheduling point
    are ordered by round-robin distance from the previously scheduled thread,
    so the first terminal schedule explored is the non-preemptive round-robin
    schedule — identical for IPB, IDB and DFS, as in the paper.

    The campaign loop lives in {!Driver}; this module provides the walk
    ({!walk}), which [Bounded.strategy] runs once or per bound level. *)

type bound =
  | Unbounded
  | Preemption of int  (** prune schedules with [PC > c] *)
  | Delay of int  (** prune schedules with [DC > c] *)
  | Variable of int
      (** variable bounding: prune schedules that preempt around more than
          [c] distinct shared objects — the cost of a preemption is 1 only
          the first time the preempted thread's pending shared object (id
          [-1] for objectless operations) enters the run's footprint *)
  | Threads of int
      (** thread bounding: prune schedules that preempt more than [c]
          distinct threads — the cost of a preemption is 1 only the first
          time the preempted thread enters the run's footprint *)

val bound_limit : bound -> int
(** The level bound [c]; [max_int] for [Unbounded]. *)

val cost_shape : bound -> Bound_cost.shape
(** How the bound charges a decision's children ({!Bound_cost}). The
    footprint bounds are preemption-shaped, except that a decision is free
    when the run's footprint already holds its key — which only the walk's
    own state can tell. *)

type level_result = {
  counted : int;  (** terminal schedules counted by this call *)
  buggy : int;
  to_first_bug : int option;  (** 1-based index among counted schedules *)
  first_bug : Stats.bug_witness option;
  pruned : bool;  (** at least one child was cut off by the bound *)
  hit_limit : bool;  (** stopped because [limit] schedules were counted *)
  hit_deadline : bool;  (** stopped because the wall-clock deadline passed *)
  complete : bool;  (** the (bounded) tree was exhausted *)
  executions : int;
  steps_executed : int;  (** steps of every execution (see {!Stats.t}) *)
  n_threads : int;
  max_enabled : int;
  max_sched_points : int;
}
(** The result of one walk run by {!explore}. *)

val walk :
  ?count_exact:int ->
  ?fair:int ->
  ?length:int ->
  ?on_exec:(Sct_core.Runtime.result -> unit) ->
  bound:bound ->
  unit ->
  Strategy.walk
(** A fresh walk of the [bound]-restricted schedule tree: the decision
    stack, prefix replay, bound accounting and backtracking. With
    [count_exact = Some c], only terminal schedules whose exact preemption
    (resp. delay, footprint) count equals [c] are counted — this is how
    iterative bounding counts each distinct schedule exactly once across
    levels (see DESIGN.md). [on_exec] is called on {e every} execution,
    counted or not, in walk order (the prefix-batch step counter,
    {!Prefix_exec.observer}, is one).

    [fair] composes fair bounding with the structural bound: a thread may
    yield only while its per-run yield count stays within [fair] of the
    least-yielding live thread; when every enabled candidate is an
    over-bound yield the execution is abandoned ({!Sct_core.Runtime.Cut},
    a [v_cut] verdict). [length] cuts executions asking for more than
    [length] decisions (schedules of exactly [length] still count). Both
    filters only remove whole runs, never restructure the tree, so the
    walk order of surviving schedules is unchanged; what they cut is
    reported by [filter_cut], what the bound cuts by [bound_cut].

    @raise Failure from [choose] if the program is nondeterministic (the
    enabled set at a replayed decision differs from the recorded one). *)

val explore :
  ?promote:(string -> bool) ->
  ?max_steps:int ->
  ?count_exact:int ->
  ?on_schedule:(Sct_core.Runtime.result -> unit) ->
  ?record_decisions:bool ->
  ?deadline:float ->
  bound:bound ->
  limit:int ->
  (unit -> unit) ->
  level_result
(** [explore ~bound ~limit program] walks the schedule tree within [bound]
    — {!Driver.explore} over {!Strategy.of_walk} of one {!walk}, lifted
    back to a {!level_result} whose [pruned] is the walk's [bound_cut].
    Exploration never stops early on a bug: the paper completes the
    current bound level to enable worst-case analysis.

    [on_schedule] is called on every counted terminal schedule's execution
    result; pass [record_decisions:true] if the callback needs the decision
    trace (off by default for speed). [count_exact] is {!walk}'s.

    @raise Failure if the program is nondeterministic. *)
