(** The one bounded runner: every tree technique of the study — DFS, IPB,
    IDB and the extensions Fair, Length, IVB and ITB — is a {!t} record,
    run by {!strategy}, as dejafu composes its bounds in one [Bounds]
    record run by one [sctBound] (SNIPPETS.md §1).

    A record with an {!axis} is iterative schedule bounding (paper §2, §5):
    all terminal schedules with zero preemptions (resp. delays, footprint
    objects or threads) are explored first, then those with one, etc.,
    until a bug is found (the level is still completed), the schedule
    limit is reached, or the whole space has been explored. Each distinct
    terminal schedule is counted exactly once, at the level equal to its
    exact count. A record without an axis is one walk of the unbounded
    tree (DFS, Length). The fair and length filters compose with either.

    The campaign is a {!Strategy.STRATEGY} (one phase per bound level) run
    by {!Driver.explore}. A prefix-batched campaign is the same campaign
    with a step counter ({!Prefix_exec.observer}) watching each walk.

    {b Partial-order reduction (BPOR).} {!strategy} with [~por] runs each
    level's count-exact walk on the {!Por.walk} reduction core instead of
    the plain {!Dfs.walk}: sleep sets and DPOR backtracking prune
    schedules that only commute independent operations, with the
    conservative backtracking points of BPOR at the prior context switch
    restoring soundness under the bound (plain DPOR is {e unsound} under
    preemption/delay bounding — the bound can make a recorded backtrack
    alternative unreachable at the level even though an equivalent
    execution spending its budget earlier stays in bound; see por.mli for
    the full invariant and the sleep-set caveat). The level progression is
    unchanged: the reduced walk's [bound_cut] reports bound cut-offs —
    including backtrack points whose bound delta exceeds the level —
    exactly like the plain walk, so a level that exhausts unpruned still
    proves the whole space explored.

    {b Interaction contract.} POR campaigns are exclusive with prefix
    batching: the step counter watches plain walks only. When a cell
    requests both, [Techniques.run] runs it reduced and unbatched (visible
    as [steps_saved = 0] in the cell's statistics). Every
    iterative-bounding campaign, plain, batched or reduced, runs on one
    domain whatever fan-out its session is given, so its statistics are
    byte-identical for every [--jobs] value. *)

type axis =
  | Preemptions
  | Delays
  | Variables
      (** variable bounding: level [c] counts the schedules that preempt
          around exactly [c] distinct shared objects ({!Dfs.bound.Variable}) *)
  | Threads
      (** thread bounding: level [c] counts the schedules that preempt
          exactly [c] distinct threads ({!Dfs.bound.Threads}) *)

type t = {
  name : string;  (** the technique name recorded in [Stats.technique] *)
  axis : axis option;
      (** [Some a]: the level progression along [a]; [None]: one walk of
          the unbounded tree *)
  fair : int option;
      (** fair bounding: a thread may yield only while its per-run yield
          count stays within this bound of the least-yielding live thread
          (dejafu's [sctFairBound]) *)
  length : int option;
      (** length bounding: executions asking for more decisions are cut
          (dejafu's [sctLengthBound]) *)
}
(** What a tree technique bounds. The filters cut whole executions
    ([Stats.cut_runs]); a campaign that lost any to them is not
    [Stats.complete], since no bound level restores them. *)

val bound_at : axis -> int -> Dfs.bound
(** The level-[c] walk bound along an axis. *)

val strategy :
  ?max_levels:int ->
  ?por:Por.mode ->
  ?on_prune:(unit -> unit) ->
  ?on_walk:(unit -> Sct_core.Runtime.result -> unit) ->
  t ->
  Strategy.t
(** The campaign of a bounds record; [max_levels] (default 64) caps the
    number of bound levels as a safety net. [por] runs every walk on the
    BPOR reduction (see the module preamble); [on_prune] fires once per
    sleep-pruned run, feeding the [Stats.por_pruned] counter. [on_walk]
    makes the observer of each plain walk, called once per walk (once per
    bound level) and handed to {!Dfs.walk} as its [on_exec]: the
    prefix-batch step counter, {!Prefix_exec.observer}.
    @raise Invalid_argument with [por] when the record has a fair or
    length filter or a footprint axis ([Variables], [Threads]), since the
    reduction restructures the tree, which neither survives; and with
    [por] and [on_walk], since a reduced walk takes no observer. *)
