(** MapleLite: a faithful reduction of the Maple algorithm (paper §3,
    "MapleAlg"; Yu et al., OOPSLA 2012) to idiom-1 inter-thread access
    patterns.

    Profiling runs record, per shared location, the ordered pairs of
    adjacent accesses by different threads (at least one a write) — the
    idiom-1 "iRoots". Every pair whose reversal was never observed becomes a
    candidate; one active run per candidate tries to force the reversal by
    withholding the thread that is about to perform the second access of the
    reversed pair until another thread performs the first. The algorithm
    terminates when every candidate has been attempted, like Maple's own
    heuristic termination — it explores very few schedules and can therefore
    both find bugs quickly and miss bugs whose idiom is richer than idiom-1
    (the behaviour Table 3 shows for MapleAlg).

    Active scheduling can only act at visible operations, so candidates are
    restricted to promoted (racy) locations — the analogue of Maple
    profiling dependencies through instrumented racy instructions. *)

val strategy :
  ?promote:(string -> bool) ->
  ?profile_runs:int ->
  seed:int ->
  unit ->
  Strategy.t
(** The MapleLite campaign as a {!Strategy.STRATEGY}: [profile_runs]
    profiling runs (default 10), then one active run per candidate, stopping
    at the first bug. The campaign length is intrinsic ([respects_limit] is
    [false]); the generic driver runs it to heuristic completion, or to the
    deadline, on one domain: the whole campaign is too short to gain from
    spreading its runs across domains.

    [Stats.complete] is set once every candidate has been attempted. That
    is Maple's heuristic termination, not an exhausted schedule space, so
    {!Guarantee.of_stats} gives no coverage guarantee for it. *)

val explore :
  ?promote:(string -> bool) ->
  ?max_steps:int ->
  ?profile_runs:int ->
  ?deadline:float ->
  seed:int ->
  (unit -> unit) ->
  Stats.t
(** [explore ~seed program] runs the profiling phase ([profile_runs]
    defaults to 10 random executions) followed by one active run per
    candidate reversal. Stops at the first bug. [total] counts profiling and
    active runs, matching how the paper reports MapleAlg schedule counts. *)
