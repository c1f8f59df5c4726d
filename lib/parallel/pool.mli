(** A fixed-size pool of domains with a FIFO work queue.

    A pool of [N] domains counts the caller: it spawns [N - 1] worker
    domains, and the domain that calls {!await} runs queued tasks until the
    future it waits for is done. It sleeps only when the queue is empty
    and its own task is still running on a worker. An idle caller would
    still cost time: OCaml 5 empties every domain's minor heap in one
    stop-the-world pause, and a sleeping domain joins each pause only once
    it wins a CPU back from the busy workers.

    The execution engine ({!Sct_core.Runtime.exec}) is single-domain by
    design: one execution runs entirely on one domain, and the ambient
    runtime slot is domain-local. The pool therefore never migrates a task
    between domains, and tasks must not share mutable state — the drivers
    built on top (see {!Drivers}, {!Suite}) only submit
    closures over immutable inputs (program thunks are re-invoked per
    execution, which makes them domain-safe).

    Exceptions raised by a task kill neither its worker nor a caller that
    ran it while awaiting another future: they are captured with their
    backtrace and re-raised by the {!await} of the task's own future.

    Deadlock discipline: tasks never call {!await}. Only the submitting
    (main) domain awaits, so no domain blocks on another's task while
    holding one of its own; in particular, a task the caller runs inside
    {!await} always finishes, and the caller then looks at its own future
    again.

    A collector that journals each result as its future lands (as
    {!Suite.run_all} does with a store) may find a finished result only
    after the task it is running itself ends, so at most one caller-run
    task lies between a result and its journal record. A run killed in
    between loses that result like any other unjournalled one, and
    [--resume] recomputes it. *)

type t

val create : jobs:int -> t
(** [create ~jobs] makes a pool of [max 1 jobs] domains, the caller
    included: it spawns [jobs - 1] worker domains. A one-job pool spawns
    no domain at all: its tasks run on the submitting domain at {!submit}
    time, in the same FIFO order a single worker would use. Keeping the
    process single-domain preserves
    {!Sct_explore.Prefix_exec.fork_available}, so sequential runs keep the
    fork-server back-end (which is slower than the plain driver, see
    prefix_exec.mli). Creating a pool of two or more domains disables
    forking for the rest of the process (the OCaml runtime refuses
    [Unix.fork] once a second domain ever existed). *)

val size : t -> int
(** Number of domains that run the pool's tasks, the caller included
    ([1] for the one-job pool). *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()]. *)

type 'a future

val submit : t -> (unit -> 'a) -> 'a future
(** Enqueue a task (or, on a one-job pool, run it now).
    @raise Invalid_argument after {!shutdown}. *)

val await : 'a future -> 'a
(** Run queued tasks on the calling domain, oldest first, until the
    future's task finished; returns its value, or re-raises the task's
    exception (with its original backtrace). Never call it from a task. *)

val shutdown : t -> unit
(** Drain the queue, on the workers and on the calling domain, then join
    the workers. Idempotent. *)

exception Cancelled
(** The error of a task that {!with_pool} dropped before it started. *)

val with_pool : jobs:int -> (t -> 'a) -> 'a
(** [with_pool ~jobs f] runs [f] with a fresh pool and always closes it.
    When [f] returns, the pool is {!shutdown}: every queued task runs.
    When [f] raises, the tasks that have not started are dropped, and
    their futures complete with {!Cancelled}, so an {!await} on one of
    them raises instead of blocking; the workers finish the tasks they are
    running and are joined, and [f]'s exception is re-raised. *)
