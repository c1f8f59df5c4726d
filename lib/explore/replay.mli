(** Schedule replay: drive an execution along a given schedule.

    SCT's reproducibility promise (paper §1): a bug-inducing schedule can be
    forced again at will. The guided scheduler follows the given thread
    list; when the schedule is exhausted (or names a disabled thread with
    [strict] off) it falls back to the deterministic round-robin choice. *)

val round_robin : Sct_core.Runtime.scheduler
(** The deterministic zero-delay scheduler:
    {!Sct_core.Delay.deterministic_choice}, the first enabled thread in
    round-robin order from the last one to run. The engine never calls a
    scheduler with an empty enabled set ({!Sct_core.Runtime.exec} reports
    a deadlock instead), so the pick always exists.
    @raise Invalid_argument on a context with no enabled thread. *)

val round_robin_run :
  ?promote:(string -> bool) ->
  ?max_steps:int ->
  (unit -> unit) ->
  Sct_core.Runtime.result
(** One execution under {!round_robin}, recording no decisions: the
    uncounted probe from which the {!Seeded.pct} and {!Seeded.surw}
    presets fix their campaign estimates (PCT's depth range, SURW's
    per-thread budgets). *)

val replay :
  ?promote:(string -> bool) ->
  ?max_steps:int ->
  ?strict:bool ->
  schedule:Sct_core.Schedule.t ->
  (unit -> unit) ->
  Sct_core.Runtime.result option
(** [replay ~schedule program] re-executes [program] along [schedule].
    With [strict] (default [true]), returns [None] if the schedule names a
    thread that is not enabled at some step — the schedule is infeasible
    for this program. *)

val parse : string -> Sct_core.Schedule.t
(** Parse a schedule from a comma-separated list of thread ids, e.g.
    ["0,0,1,2,1"]. A thread id is a run of decimal digits no larger than
    [max_int]. Whitespace around the ids and around the whole input (the
    bytes [String.trim] strips) is ignored; a blank input is the empty
    schedule.
    @raise Failure on malformed input, naming the offending token and its
    byte offset (e.g. [{|Replay.parse: bad thread id "x" at offset 2|}]). *)
