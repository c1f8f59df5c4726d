(** The seeded techniques: the paper's naive random scheduler (§3, "Rand")
    and the study's PCT and SURW extensions, each a {!t} preset run by one
    {!strategy}, as dejafu builds each random scheduler as a scheduler
    function over one runner (SNIPPETS.md §2).

    Run [i] of a campaign is a pure function of the seed, [i] and one
    uncounted probe of the program. The run range therefore splits into
    contiguous shards whose statistics merge ({!Stats.merge}) into exactly
    the sequential campaign's: {!sharding} declares that plan, which
    [Sct_parallel.Drivers] runs on a pool and the campaign runner runs one
    budget slice at a time. No information is saved between runs, so a
    seeded campaign may repeat a schedule and never "completes"; only the
    budget, the deadline or [stop_on_bug] stops it. *)

type t = {
  name : string;  (** the technique name recorded in [Stats.technique] *)
  tracks_distinct : bool;
      (** the driver keeps the set of distinct terminal schedules *)
  probe :
    promote:(string -> bool) ->
    max_steps:int ->
    (unit -> unit) ->
    seed:int ->
    int ->
    Sct_core.Runtime.scheduler;
      (** [probe ~promote ~max_steps program] runs the preset's uncounted
          probe of [program], once per campaign, and returns the per-run
          maker: [~seed i] is the scheduler of run [i], fresh on every
          call *)
}
(** A seeded technique. *)

val rand : t
(** Rand: one uniform draw among the enabled threads at every scheduling
    point, from an RNG seeded with [\[|seed; i|\]]; it probes nothing and
    keeps the distinct schedules. *)

val pct : change_points:int -> t
(** PCT, the randomised priority scheduler (Burckhardt et al., ASPLOS
    2010; paper §7). Each thread gets a random priority above
    [change_points] and the highest-priority enabled thread runs; at
    [change_points] step depths drawn from [\[1, k\]] the thread about to
    run drops below every initial priority. The probe fixes [k], the
    length of one round-robin run ({!Replay.round_robin_run}). With bug
    depth [d], PCT finds the bug with probability at least
    [1/(n·k^(d-1))]. It does not keep distinct schedules.
    A scheduler called on no enabled thread, which the engine never does,
    raises [Invalid_argument]. *)

val surw : t
(** SURW, a selectively uniform random walk. Rand over-samples schedules
    that exhaust short threads early; SURW weights each point by the
    events each enabled thread has left, descending the schedule tree with
    probability roughly proportional to the number of terminal schedules
    under each branch. The probe counts how often the round-robin run
    scheduled each thread; every run starts from those budgets, a thread
    the probe never saw has one event left, and once every budget is
    spent the pick falls back to uniform. It keeps the distinct
    schedules. *)

val strategy :
  ?promote:(string -> bool) ->
  ?max_steps:int ->
  seed:int ->
  t ->
  (unit -> unit) ->
  Strategy.t
(** The campaign of a preset: one never-ending phase of runs [0, 1, ...];
    the preset's probe runs in the strategy's [init]. [promote] and
    [max_steps] (default 100,000) are the probe's. *)

val explore :
  ?promote:(string -> bool) ->
  ?max_steps:int ->
  ?stop_on_bug:bool ->
  ?deadline:float ->
  seed:int ->
  runs:int ->
  t ->
  (unit -> unit) ->
  Stats.t
(** [explore ~seed ~runs p program] runs {!strategy} on {!Driver.explore}
    for [runs] executions. With [stop_on_bug] (default [false], as in the
    paper) the campaign stops at the first buggy schedule. *)

val sharding :
  ?promote:(string -> bool) ->
  ?max_steps:int ->
  ?deadline:float ->
  seed:int ->
  t ->
  (unit -> unit) ->
  Strategy.sharding
(** The declared parallel plan: the probe runs once, here, on the
    collector, and {!Strategy.Shard_seed} runs [\[lo, hi)] of the campaign
    from it. [to_first_bug] is an absolute 1-based run index and a shard
    reports [hit_limit] and [hit_deadline] as the driver does, so folding
    {!Stats.merge} over any partition of [\[0, runs)] equals {!explore}
    (up to the deadline, which each shard checks on its own). *)
