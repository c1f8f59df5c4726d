(** The deterministic, serialised execution engine.

    This is the OCaml analogue of Maple's systematic mode (paper §3): the
    program under test runs as a set of effect-handled fibres; every visible
    operation is a scheduling point, where a user-supplied scheduler picks
    the next enabled thread. A fibre suspends only when another thread is
    to run: a thread that keeps running takes the decision on its own stack
    and goes on (see {!visible}). Execution is fully serialised, so repeated
    execution of the same schedule always reaches the same program state,
    provided the program's only nondeterminism is scheduling (paper §2).

    Programs are written against the {!Sct} DSL, which performs the effects
    declared here; explorers drive {!exec} with different schedulers.

    The per-step loop is the hot path of every technique in the study, so it
    maintains the enabled set incrementally (see DESIGN.md, "hot-path
    architecture"): only threads whose pending operation could have been
    affected by the previous step are re-evaluated, and single-enabled-thread
    stretches schedule without allocating. *)

(** {1 Object state} *)

(** Internal state of a synchronisation object or shared location. Object
    ids are assigned in creation order, so they are stable across executions
    of a deterministic program. *)

type mutex_state = { mutable holder : Tid.t option; mutable destroyed : bool }

type cond_state = { waiters : (Tid.t * int) Queue.t }
(** FIFO of waiter threads paired with the mutex each must re-acquire. *)

type sem_state = { mutable count : int }

type barrier_state = {
  size : int;
  mutable waiting : Tid.t list;
  mutable n_waiting : int;  (** [List.length waiting], cached *)
}

type rw_state = {
  mutable readers : Tid.t list;
  mutable writer : Tid.t option;
}

type obj =
  | O_mutex of mutex_state
  | O_cond of cond_state
  | O_sem of sem_state
  | O_barrier of barrier_state
  | O_rw of rw_state
  | O_location of { name : string }
      (** a shared variable or array; state lives in typed client code *)

type t
(** A runtime instance: one per execution. *)

(** {1 Perform sites of the DSL} *)

val visible : t -> Op.t -> unit
(** [visible rt op] is the scheduling point just before the running
    thread's visible operation [op]; it returns once [op] was executed (for
    access operations: once the thread may execute it itself). [rt] must be
    the runtime of the execution in progress.

    A thread that the loop resumed for a scheduled step, after keeping it
    running four times, takes the next decision here, on its own stack,
    when [op] is enabled and needs no continuation (everything but a
    condition wait and a barrier arrival that blocks). If the scheduler
    keeps the thread running, the step is committed and [op] applied in
    place, with no effect performed. In every other case the fibre
    suspends, and the loop commits the decision taken here, or takes it
    itself. *)

val spawn : (unit -> unit) -> Tid.t
(** Suspend the running thread before a spawn; on execution a new thread
    is created and its creation-order id is returned. *)

(** {1 Scheduling} *)

type decision = {
  d_enabled : Tid.t list;  (** enabled set, sorted by thread id *)
  d_chosen : Tid.t;
  d_op : Op.t;  (** the pending operation the chosen thread executed *)
  d_n_threads : int;  (** threads created when the decision was taken *)
}

type ctx = {
  mutable c_step : int;  (** 0-based decision index *)
  mutable c_last : Tid.t option;  (** previously scheduled thread *)
  mutable c_enabled : Tid.t list;  (** sorted by thread id; never empty *)
  mutable c_n_enabled : int;
      (** [List.length c_enabled], which the engine counts anyway *)
  mutable c_enabled_fp : int;
      (** {!fingerprint} of [c_enabled], maintained incrementally *)
  mutable c_n_threads : int;
  c_rt : t;
}
(** One [ctx] record is reused (mutated in place) across all steps of an
    execution; schedulers must not retain it beyond the call. Retaining the
    [c_enabled] list itself is fine — lists are immutable and never patched
    in place. The engine hands the same list out again at every decision
    until the enabled set changes, so consecutive decisions may share it
    physically. *)

type scheduler = ctx -> Tid.t
(** Must return a member of [c_enabled].

    A scheduler may run on the stack of the fibre whose step it decides
    (see {!visible}), so it must not perform the DSL's effects: it must not
    call {!Sct} operations of the execution it schedules. What it raises,
    {!Cut} included, surfaces from {!exec}, never inside the program. *)

val uniform_pick : Random.State.t -> ctx -> Tid.t
(** A uniformly random member of [c_enabled]: one
    [Random.State.int rng c_n_enabled] draw, made on a single enabled
    thread too so that the stream of draws does not depend on the set's
    size, then a walk to that index. Allocates nothing.
    @raise Invalid_argument if [c_n_enabled] exceeds the list's length,
    which the engine never lets happen. *)

exception Cut
(** Raised by a scheduler to abandon the current execution when every
    enabled continuation is filtered out by an execution-level bound (fair
    or length bounding). {!exec} catches it, tears the execution down
    normally, and returns the truncated prefix as a [Step_limit] result —
    a terminal, non-buggy run, exactly like one stopped at [max_steps]. *)

type result = {
  r_outcome : Outcome.t;
  r_schedule : Schedule.t;
  r_decisions : decision list;  (** in execution order *)
  r_pc : int;  (** preemption count of the terminal schedule *)
  r_dc : int;  (** delay count of the terminal schedule *)
  r_n_threads : int;  (** total threads created *)
  r_max_enabled : int;  (** max simultaneously enabled threads *)
  r_multi_points : int;  (** #decisions where more than one thread enabled *)
  r_steps : int;
}

val exec :
  ?promote:(string -> bool) ->
  ?listener:(Event.t -> unit) ->
  ?max_steps:int ->
  ?record_decisions:bool ->
  scheduler:scheduler ->
  (unit -> unit) ->
  result
(** [exec ~scheduler program] runs [program] as thread 0 to a terminal state:
    all threads finished ([Ok]), no enabled thread remains ([Deadlock]), a
    bug was raised, or [max_steps] (default [100_000]) visible steps were
    executed ([Step_limit], the live-lock guard).

    [promote] decides which shared-location names are treated as visible
    operations (the outcome of the data-race-detection phase, paper §5);
    default: none. [listener] receives every {!Event.t} (shared accesses —
    visible or not — and synchronisation events). [record_decisions]
    (default [true]) keeps the per-step decision trace in the result.

    [scheduler] is called once per step, in step order, with the same
    context wherever the decision is taken. An exception that [scheduler]
    or [listener] raises while applying a synchronisation operation tears
    the execution down and surfaces from [exec], even when it was raised on
    a fibre's stack and the program catches every exception. Shared-access
    events are emitted by the accessing program code itself, once the
    access's scheduling point has returned, so what the listener raises on
    those reaches the program. *)

(** {1 Enabled-set fingerprints} *)

val fingerprint : Tid.t list -> int
(** Order-independent fingerprint of an enabled set (xor of mixed per-tid
    hashes). Equal sets always have equal fingerprints; explorers use it to
    cheaply check that a replayed prefix sees the enabled sets it recorded.
    The engine maintains the fingerprint of the current enabled set
    incrementally and exposes it as [ctx.c_enabled_fp]. *)

(** {1 Bound costs of the pending decision}

    The per-thread costs of extending the schedule by one step of [t]
    (paper §2), read off the engine's cached enabled bits. Called from a
    scheduler, they describe the decision in progress: on every enabled
    [t] they equal [Preemption.delta ~last:ctx.c_last ~enabled:ctx.c_enabled t]
    and [Delay.delays ~n:ctx.c_n_threads ~last:ctx.c_last ~enabled:ctx.c_enabled t],
    the reference definitions, without scanning the list. *)

val preemption_cost : t -> Tid.t -> int
(** [1] iff the previously scheduled thread is still enabled and is not
    [t]; O(1). *)

val delay_cost : t -> Tid.t -> int
(** The enabled threads round-robin skips from the previously scheduled
    thread to [t]; O(round-robin distance). *)

(** {1 Introspection used by the DSL and by schedulers} *)

val ambient : unit -> t
(** The runtime of the execution in progress on this stack.
    @raise Invalid_argument outside of {!exec}. *)

val self : t -> Tid.t
(** The currently executing thread. *)

val new_object : t -> obj -> int
val find_object : t -> int -> obj
val promoted : t -> string -> bool

val emit : t -> Event.t -> unit

val listening : t -> bool
(** Whether a listener is attached. Callers on hot paths check this before
    building an {!Event.t}, so the record is never allocated when nobody is
    listening. *)

val pending_op : t -> Tid.t -> Op.t option
(** The visible operation [tid] is suspended before, if it is runnable. *)

val pending_is_yield : t -> Tid.t -> bool
(** Whether [tid] is suspended before a [Yield] — allocation-free, consulted
    per decision by fair-bounded walks. *)

val pending_obj_id : t -> Tid.t -> int
(** The object id of [tid]'s pending operation, [-1] when the operation
    touches no shared object (spawn/join/yield) or the thread is not
    runnable. Variable bounding keys preemption footprints on this id. *)

val thread_live : t -> Tid.t -> bool
(** Whether [tid] has been created and not yet finished (it may be blocked).
    Fair bounding compares yield counts across live threads. *)

val thread_finished : t -> Tid.t -> bool
val n_threads : t -> int

val try_lock_result : t -> bool
(** Result of the most recently executed [Try_lock] operation; read by the
    DSL immediately after resumption (execution is serialised, so this
    cannot be clobbered in between). *)

val bug : t -> Outcome.bug -> 'a
(** Abort the current execution with a bug attributed to {!self}. Records
    the bug on [t] (so it is attributed even when raised from a scheduler or
    listener callback) and raises {!Outcome.Bug_exn}. *)

val recomputed_enabled : t -> Tid.t list
(** Testing hook: the enabled set recomputed from scratch (sorted by thread
    id), bypassing the incremental caches. The scheduling loop must agree
    with this at every decision; the qcheck law in [test_engine_hot]
    enforces it. *)
