(** The generic budgeted campaign driver.

    One loop executes every technique (see {!Strategy}): it repeatedly asks
    the strategy for the next phase and the next scheduled execution, and
    owns all cross-cutting bookkeeping — the schedule budget, the optional
    wall-clock deadline, statistics accumulation, distinct-schedule
    tracking, bug witnesses, and the [on_schedule] hook the reports and the
    store build on.

    The loop is resumable. {!start} sets a campaign up and {!advance} runs
    it up to a budget; a later {!advance} at a larger budget continues
    from the point where the budget stopped it, and returns exactly what
    {!explore} at that budget returns. {!explore} is one advance of a
    fresh session. *)

type session
(** A campaign paused between two advances: the strategy's state, the
    counters, and where the budget stopped the loop. It lives in memory
    only; nothing of it is journalled. *)

val start :
  ?promote:(string -> bool) ->
  ?max_steps:int ->
  ?record_decisions:bool ->
  ?stop_on_bug:bool ->
  ?count_offset:int ->
  ?on_schedule:(Sct_core.Runtime.result -> unit) ->
  Strategy.t ->
  (unit -> unit) ->
  session
(** [start strategy program] runs the strategy's [init] and sets the
    counters up; it executes nothing else. The arguments mean what they
    mean for {!explore}. *)

val advance :
  ?max_executions:int -> ?deadline:float -> session -> limit:int -> Stats.t
(** [advance session ~limit] runs the campaign until the budget
    ([limit], [max_executions]), the [deadline] or the strategy stops it,
    and returns the statistics of the whole campaign so far.

    {b The session law.} Advancing one session through non-decreasing
    limits L1 <= L2 <= ... returns at each Li exactly what
    [explore ~limit:Li] on a fresh session returns (with the same
    [max_executions] rule at every advance, and no [deadline]). An advance
    after a budget stop clears [hit_limit], [bound] and [new_at_bound] and
    re-enters the loop at the check the budget interrupted: the next run
    of the same phase, the strategy's next phase after a phase-over
    verdict, or the first run of the phase just opened. A deadline,
    [stop_on_bug] or a finished strategy ends the session; later advances
    return the same statistics and execute nothing. A limit below an
    earlier one executes nothing either, so the law needs non-decreasing
    limits. *)

val explore :
  ?promote:(string -> bool) ->
  ?max_steps:int ->
  ?record_decisions:bool ->
  ?stop_on_bug:bool ->
  ?count_offset:int ->
  ?max_executions:int ->
  ?deadline:float ->
  ?on_schedule:(Sct_core.Runtime.result -> unit) ->
  limit:int ->
  Strategy.t ->
  (unit -> unit) ->
  Stats.t
(** [explore ~limit strategy program] runs the campaign until the strategy
    finishes, [limit] terminal schedules were counted ([Stats.hit_limit] —
    ignored when the strategy declares [respects_limit = false]), the
    [deadline] (absolute {!Unix.gettimeofday} timestamp) passes between two
    executions ([Stats.hit_deadline]), or — with [stop_on_bug] — the first
    buggy schedule was counted. When both fire on the same execution the
    schedule limit wins, so deadline-free runs are byte-for-byte
    deterministic. Cut executions ([v_cut] verdicts, fair/length bounding)
    are charged against the schedule budget alongside counted terminals
    (the limit check is [counted + cut_runs >= limit]) and reported as
    [Stats.cut_runs]: a cut prefix is not a terminal schedule, but a
    cut-heavy space must not spin without budget progress.

    [max_executions] (default: unlimited) additionally charges the budget
    per raw execution, counted or not, reported as [Stats.hit_limit]. The
    POR-composed campaigns pass the schedule limit here: a reduced walk
    deliberately counts few schedules, so a counted-only budget would let
    it climb bound levels through an astronomically larger raw tree.
    Execution counts are deterministic, so the cap preserves the
    byte-identity laws ([--jobs], resume, merge).

    [count_offset] shifts [Stats.to_first_bug] into an absolute index space
    (shard [lo]), so shard statistics merge into the sequential campaign's.
    [on_schedule] is called on every counted terminal schedule; pass
    [record_decisions:true] if the callback needs the decision trace.

    It is [advance ~limit (start strategy program)]. *)

val deadline_of_time_limit : float option -> float option
(** Turn a relative [--time-limit] (seconds, [None] = unlimited) into an
    absolute deadline for {!explore}, evaluated now. *)
