(** Iterative schedule bounding (paper §2, §5).

    All terminal schedules with zero preemptions (resp. delays) are explored
    first, then those with one, etc., until a bug is found (the level is
    still completed), the schedule limit is reached, or the whole space has
    been explored. Each distinct terminal schedule is counted exactly once,
    at the level equal to its exact preemption/delay count.

    The campaign is a multi-phase {!Strategy.STRATEGY} (one phase per bound
    level) run by {!Driver.explore}; {!explore_batched} runs the same level
    progression with every level walked by {!Prefix_exec}.

    {b Partial-order reduction (BPOR).} {!strategy} with [~por] runs each
    level's count-exact walk on the {!Por.Walk} reduction core instead of
    the plain {!Dfs.Walk}: sleep sets and DPOR backtracking prune
    schedules that only commute independent operations, with the
    conservative backtracking points of BPOR at the prior context switch
    restoring soundness under the bound (plain DPOR is {e unsound} under
    preemption/delay bounding — the bound can make a recorded backtrack
    alternative unreachable at the level even though an equivalent
    execution spending its budget earlier stays in bound; see por.mli for
    the full invariant and the sleep-set caveat). The level progression is
    unchanged: [Por.Walk.pruned] reports bound cut-offs — including
    backtrack points whose bound delta exceeds the level — exactly like
    the plain walk, so a level that exhausts unpruned still proves the
    whole space explored.

    {b Interaction contract.} POR campaigns are exclusive with prefix
    batching: {!explore_batched} / {!Prefix_exec} never run reduced walks
    — sleep-set and clock state threads through sibling continuations in
    walk order, so continuations cannot be forked ahead of time. When a
    cell requests both, [Techniques.run] falls back to the unbatched
    driver (visible as [steps_saved = 0] in the cell's statistics). Every
    iterative-bounding campaign, plain, batched or reduced, runs on one
    domain ({!Strategy.Sequential}), so its statistics are byte-identical
    for every [--jobs] value. *)

type kind =
  | Preemption_bounding
  | Delay_bounding
  | Variable_bounding
      (** iterative variable bounding: level [c] counts the schedules that
          preempt around at most (exactly, for counting) [c] distinct
          shared objects ({!Dfs.bound.Variable}) *)
  | Thread_bounding
      (** iterative thread bounding: level [c] counts the schedules that
          preempt at most (exactly) [c] distinct threads
          ({!Dfs.bound.Threads}) *)

val technique_name : kind -> string
(** ["IPB"], ["IDB"], ["IVB"] or ["ITB"]. *)

val bound_of : kind -> int -> Dfs.bound
(** The level-[c] walk bound of this kind. *)

val strategy :
  ?max_levels:int ->
  ?por:Por.mode ->
  ?fair:int ->
  ?technique:string ->
  ?on_prune:(unit -> unit) ->
  kind:kind ->
  unit ->
  Strategy.t
(** The iterative-bounding strategy; [max_levels] (default 64) caps the
    number of bound levels as a safety net. [por] runs each level on the
    BPOR reduction walk (see the module preamble); [on_prune] fires once
    per sleep-pruned run, feeding the [Stats.por_pruned] counter.

    [fair] composes the fair filter of {!Dfs.Walk.make} with every level's
    walk (the [Axes.fair] technique: iterative preemption bounding over
    fairly-bounded executions, the composition of the dejafu default
    bounds). Its [Stats.complete] additionally requires that no level cut
    an execution on the fair filter. [technique] overrides the recorded
    technique name. *)

val explore :
  ?promote:(string -> bool) ->
  ?max_steps:int ->
  ?max_levels:int ->
  ?fair:int ->
  ?technique:string ->
  ?deadline:float ->
  kind:kind ->
  limit:int ->
  (unit -> unit) ->
  Stats.t
(** [explore ~kind ~limit program] performs the full iterative search with a
    total budget of [limit] counted terminal schedules —
    {!Driver.explore} over {!strategy}. The reduced (BPOR) campaign, which
    also budgets raw executions, is built by [Techniques.session]. *)

val explore_batched :
  ?promote:(string -> bool) ->
  ?max_steps:int ->
  ?max_levels:int ->
  ?fork:bool ->
  ?deadline:float ->
  kind:kind ->
  limit:int ->
  (unit -> unit) ->
  Stats.t
(** {!explore} with every level walked by {!Prefix_exec.explore}: identical
    statistics except that [steps_executed]/[steps_saved] carry the batched
    step cost. [fork] overrides the executor's back-end selection. *)
