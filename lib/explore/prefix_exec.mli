(** Prefix-memoizing batched executor for systematic schedule-tree walks.

    A backtracking walk ({!Dfs.explore}) re-executes the program from the
    root for every terminal schedule, although consecutive terminals share
    every decision above their divergence point. {!explore} walks the same
    bounded tree, in the same depth-first order, with the same statistics,
    and counts the shared decisions that a batch of sibling continuations
    would not re-execute:

    - {b fork server} (Unix, single-domain processes only): the
      program runs once under a scheduler that [Unix.fork]s one child per
      untried sibling branch at every in-bound branching decision. The
      forked child {e is} the memoized frontier state — OCaml 5 effect
      continuations are one-shot, so process duplication is the only way to
      resume one execution state twice. Terminal results stream back over a
      pipe in exact sequential DFS order; each is answered with a control
      byte that propagates the budget/deadline stop into the process tree.
    - {b re-execution fallback} (portable): delegates to the classic
      backtracking walk, physically replaying every prefix.

    Both back-ends report identical {e analytic} step counters computed
    from the terminal-schedule stream (divergence depth of consecutive
    terminals = fork depth = decisions not re-executed), so campaign
    statistics are byte-identical whichever back-end ran. See DESIGN.md
    §14.

    {b Neither back-end is faster than the plain driver.} [steps_saved]
    counts decisions, not time. A fork plus a pipe round trip per sibling
    costs far more than re-running a prefix of a few dozen steps: on a
    2-core x86-64 Linux host, DFS on [CS.reorder_10_bad] at limit 10,000
    takes about 0.1 s on the plain driver and 13–15 s on the fork server.
    The fallback re-executes exactly what the plain walk does, plus the
    step accounting.

    {b Partial-order-reduced walks are never batched.} Forking one child
    per untried sibling at a branching decision assumes the sibling set is
    known when the decision is first reached. A reduction walk
    ({!Por.Walk}) violates this twice over: DPOR adds backtrack points to
    a frame only {e after} deeper steps observe races, and the sleep set a
    sibling starts with contains the siblings explored {e before} it — the
    continuation state threads through siblings in walk order instead of
    being fixed at fork time. When a cell requests both [--por] and
    [--prefix-batch], POR wins and the cell runs on the unbatched driver;
    the fallback is visible in the cell's statistics ([steps_saved = 0])
    and both options are recorded in the store fingerprint. *)

val fork_available : unit -> bool
(** Whether the fork server may run right now: a Unix system, on the main
    domain, in a process that never spawned a second domain. *)

val note_domains_spawned : unit -> unit
(** Record that a worker domain was spawned. The OCaml runtime permanently
    refuses [Unix.fork] in a process that ever ran more than one domain, so
    this disables the fork server for the rest of the process — the
    portable fallback (with identical results) takes over, silently. The parallel
    pool calls this before its first [Domain.spawn]. *)

val explore :
  ?promote:(string -> bool) ->
  ?max_steps:int ->
  ?count_exact:int ->
  ?fork:bool ->
  ?deadline:float ->
  bound:Dfs.bound ->
  limit:int ->
  (unit -> unit) ->
  Strategy.walk_result
(** Explore the (bounded) schedule tree, batching sibling continuations.
    Equal to
    [Dfs.explore ?promote ?max_steps ?count_exact ?deadline ~bound ~limit]
    in every field except [steps_executed]/[steps_saved], which
    carry the batched analytic step cost (their sum is the unbatched
    cost). [fork] overrides back-end selection (default
    {!fork_available}); both back-ends return identical results, bit for
    bit. *)
