(** Prefix-batch step accounting for systematic schedule-tree walks.

    A backtracking walk re-executes the program from the root for every
    terminal schedule (paper §3: the systematic mode is stateless),
    although consecutive terminals share every decision above their
    divergence point. A prefix-batched campaign ([--prefix-batch]) runs
    exactly the plain bounded walk and counts, beside it, the decisions a
    batch of sibling continuations would not have re-executed:
    [Stats.steps_saved]. The count is {e analytic}: the campaign executes
    every step and runs no faster than the plain driver.

    {!observer} is the counter. [Bounded.strategy ~on_walk] hands a fresh
    observer to each walk it makes, one per bound level, so each level's
    first terminal pays its full schedule; the saved decisions of every
    walk add up in one [int ref]. See DESIGN.md §14.

    {b Partial-order-reduced walks are not counted.} When a cell requests
    both [--por] and [--prefix-batch], POR wins and the cell runs unbatched
    ([steps_saved = 0]); both options are recorded in the store
    fingerprint. *)

val observer : int ref -> unit -> Sct_core.Runtime.result -> unit
(** [observer saved ()] is a fresh per-walk observer: fed every execution
    of one walk in walk order, it adds to [saved] the length of the prefix
    each terminal schedule shares with the one before it. The sum of the
    schedule lengths minus [!saved] is what a batched walk pays
    ([Stats.steps_executed]). *)

(** {1 Kept for the ledger}

    The two values below belong to the fork server that prefix batching
    once ran on. Nothing in the library reads them; the parallel pool
    still calls {!note_domains_spawned}, and the benchmark ledger's traced
    [study] prologue ([ledger/workloads.ml]) fails unless
    {!fork_available} holds in a fresh one-domain process. They go with
    [--prefix-batch] itself. *)

val fork_available : unit -> bool
(** A Unix system, on the main domain, in a process that never spawned a
    second domain: the OCaml runtime refuses to fork a process that ever
    ran more than one domain. *)

val note_domains_spawned : unit -> unit
(** Record that a worker domain was spawned, so {!fork_available} is false
    for the rest of the process. The parallel pool calls this before its
    first [Domain.spawn]. *)
