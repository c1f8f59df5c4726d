(** Partial-order reduction as a reusable, bound-parameterized walk: sleep
    sets (Godefroid 1996), the dynamic partial-order reduction of Flanagan
    & Godefroid (POPL 2005), and their bounded combination — BPOR (Coons,
    Musuvathi, McKinley; the recipe of dejafu's [sctBound]).

    Both unbounded techniques prune schedules that are guaranteed
    equivalent (up to commuting independent operations) to schedules
    explored elsewhere, so safety violations — assertion failures,
    deadlocks, crashes — are still found, with far fewer executions:

    - {b Sleep sets}: after exploring child [t] of a node, [t] (with its
      pending operation) is put to sleep for the node's remaining children
      and stays asleep down those subtrees until a dependent operation
      executes; branches where every enabled thread sleeps are pruned.
    - {b DPOR}: a node initially explores only its round-robin child; when a
      later step is found to race (be dependent and concurrent) with an
      earlier one, the racing thread is added to the earlier node's
      backtrack set. Happens-before is tracked with vector clocks.

    {b The conservative-backtracking invariant (BPOR).} Under a finite
    {!Dfs.bound} the plain algorithms are {e unsound}: a backtrack point
    records that "scheduling thread [p] at frame [j] reaches a genuinely
    different state", but the bound may make that alternative — or the
    states below it — unreachable at the current level even though an
    equivalent execution spending its preemption/delay budget {e earlier}
    stays in bound. Likewise a sleeping thread's covering execution may
    have been cut by the bound. The walk therefore maintains the BPOR
    invariant: whenever a non-conservative backtrack point is added at
    frame [j], a {e conservative} point for the same thread is also added
    at the prior context switch at or before [j] (the deepest frame whose
    decision switched threads). Conservative points are explored
    {e ignoring the sleep set}, and the subtree below a conservatively
    explored child starts with an {e empty} sleep set — a sleeping
    thread's justification ("an equivalent interleaving is covered
    elsewhere") may point at executions the bound cut off. Points whose
    own bound delta exceeds the level bound are recorded as bound pruning
    ([Walk.pruned]) so the iterative-bounding level loop re-explores them
    at the next level, and every in-bound sibling at that frame becomes a
    conservative point: bound deltas depend on the decisions between the
    frame and the race (delay counting charges by round-robin position),
    so an interposed independent step can make the cut reordering
    affordable deeper in the tree, where re-run race discovery re-derives
    it.

    {b Sleep-set/bound soundness caveat.} Sleep sets {e alone} cannot be
    patched this way — there is no backtrack set to wake conservatively.
    A thread asleep at a node is justified by an already-explored
    equivalent execution, but under a bound that execution's continuation
    may have cost more preemptions/delays and been cut, while the pruned
    branch was in bound. [Walk.make] with [mode = Sleep] and a finite
    bound therefore disables sleep pruning and degenerates to the plain
    bounded walk (counted schedules identical to {!Dfs.Walk}); bounded
    reduction requires the DPOR machinery ([Dpor] or [Dpor_sleep]).

    {b Interaction contract with prefix batching.} A POR cell always runs
    on the one-run-at-a-time driver. The sleep set and the DPOR clocks
    thread through sibling continuations in walk order — sibling [k+1]'s
    sleep set contains sibling [k] — so continuations cannot be forked
    ahead of time as {!Prefix_exec} does. When both [--por] and
    [--prefix-batch] are requested, the cell falls back to unbatched
    execution (the choice is visible in the cell's statistics:
    [steps_saved = 0]) and the store fingerprint records both options.
    Like every tree walk, a POR cell runs on one domain
    ([Strategy.Sequential]) for every [--jobs] value, so its statistics
    are byte-identical for every [jobs] value.

    The reduction assumes full dependence information for the {e visible}
    operations (see {!Op_depend}); unpromoted locations must be race-free,
    which is what the race-detection phase establishes probabilistically.
    The [por] CLI subcommand promotes every location instead. *)

type mode = Sleep | Dpor | Dpor_sleep

val mode_name : mode -> string
(** ["sleep"], ["dpor"] or ["dpor+sleep"]. *)

val of_mode_name : string -> mode option
(** Case-insensitive; accepts ["both"] as an alias of ["dpor+sleep"]. *)

val valid_mode_names : string list
(** The canonical names accepted by {!of_mode_name}, for CLI errors. *)

val parse_mode : string -> (mode, string) result
(** Parse one [--por] mode name; the error message lists every valid mode,
    matching the {!Techniques.parse_list} convention. *)

(** The reduction walk, mirroring {!Dfs.Walk}: a strategy/driver-shaped
    core usable on its own ({!strategy_of_walk}) or one bound level at a
    time inside the iterative-bounding campaign ([Bounded.strategy] with
    [~por]). *)
module Walk : sig
  type t

  val make :
    ?on_prune:(unit -> unit) ->
    ?count_exact:int ->
    mode:mode ->
    bound:Dfs.bound ->
    unit ->
    t
  (** A fresh walk of the [bound]-restricted schedule tree. [count_exact]
      is the iterative-bounding level filter (count only schedules whose
      exact preemption/delay count equals the level). [on_prune] fires
      once per sleep-pruned run — the [Stats.por_pruned] counter. *)

  val begin_run : t -> unit
  val choose : t -> Sct_core.Runtime.ctx -> Sct_core.Tid.t

  val on_terminal : t -> Sct_core.Runtime.result -> Strategy.verdict
  (** Sleep-pruned runs never count, whatever their exact bound count. *)

  val counts : t -> Sct_core.Runtime.result -> bool

  val pruned : t -> bool
  (** The bound cut off a reachable reordering (an in-run child or a
      backtrack point out of bound): the level is incomplete and the
      iterative campaign must continue at the next bound. Sleep-set
      pruning never sets this — those branches are covered elsewhere. *)

  val pruned_runs : t -> int
  (** Runs cut because every in-bound enabled thread was asleep. *)

  val exhausted : t -> bool
end

val strategy_of_walk : ?technique:string -> Walk.t -> Strategy.t
(** One walk as a single-phase strategy for {!Driver.explore}, mirroring
    [Dfs.strategy_of_walk]. It is never batched (see the interaction
    contract above). *)

type result = {
  counted : int;  (** terminal schedules explored *)
  pruned_sleep : int;  (** branches cut because every enabled thread slept *)
  buggy : int;
  to_first_bug : int option;
  first_bug : Stats.bug_witness option;
  complete : bool;
  hit_limit : bool;
  executions : int;
}

val explore :
  ?promote:(string -> bool) ->
  ?max_steps:int ->
  ?bound:Dfs.bound ->
  mode:mode ->
  limit:int ->
  (unit -> unit) ->
  result
(** One reduction walk (default [bound = Unbounded]) through the unified
    {!Driver.explore} loop — the [por] CLI subcommand's engine.
    [executions] counts every run, including the [pruned_sleep] ones. *)
