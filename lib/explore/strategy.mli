(** The first-class technique interface.

    Every concurrency-testing technique of the study — DFS, IPB, IDB, Rand,
    PCT, MapleAlg, and the SURW extension — is an instance of the
    {!STRATEGY} signature, executed by the single generic driver
    ({!Driver.explore}). The strategy owns {e what to run next}; the driver
    owns everything cross-cutting: the schedule budget, the wall-clock
    deadline, statistics accumulation into {!Stats.t}, distinct-schedule
    tracking, bug witnesses and event hooks. See DESIGN.md §10.

    A campaign is a sequence of {e phases} (iterative bounding runs one
    phase per bound level; every other technique has exactly one phase).
    Within a phase the driver repeatedly asks the strategy to schedule one
    execution; the strategy's {!STRATEGY.on_terminal} verdict says whether
    the terminal schedule counts against the budget and whether the phase
    is over. *)

type phase = {
  ph_bound : int option;
      (** the bound level being explored; recorded as [Stats.bound] when
          the budget or the deadline stops the campaign inside this phase *)
  ph_new_at_bound : bool;
      (** when true, the schedules counted during this phase are the
          paper's "new at final bound" statistic if the campaign stops
          inside (or right after) this phase *)
}

type finish = {
  f_complete : bool;  (** the whole schedule space was explored *)
  f_bound : int option;  (** final [Stats.bound] *)
  f_bound_complete : bool;  (** the final bound level was fully explored *)
  f_new_at_bound : bool;
      (** when true, the last phase's counted schedules are recorded as
          [Stats.new_at_bound] *)
}

type phase_step = Phase of phase | Finished of finish

type verdict = {
  v_counts : bool;
      (** the terminal schedule counts against the budget (iterative
          bounding replays out-of-level schedules without counting them) *)
  v_phase_over : bool;  (** the phase is exhausted; ask for the next one *)
  v_cut : bool;
      (** the execution was cut mid-run by an execution-level bound (fair
          or length bounding raised {!Sct_core.Runtime.Cut}): the truncated
          prefix is not a terminal schedule ([v_counts] is false), but the
          driver charges it against the budget so cut-heavy spaces cannot
          spin without budget progress *)
}

module type STRATEGY = sig
  val technique : string
  (** Name recorded in the statistics (e.g. ["IPB"]). *)

  (** {2 Declared properties, read by the driver} *)

  val tracks_distinct : bool
  (** The technique may re-explore schedules, so the driver keeps the set
      of distinct terminal schedules (randomised techniques). *)

  val respects_limit : bool
  (** When [false] the campaign's length is intrinsic (MapleAlg attempts
      each candidate once) and the driver ignores the schedule limit. *)

  (** {2 Campaign state} *)

  type state

  val init : unit -> state
  (** Per-campaign setup; may execute uncounted probe runs (PCT, SURW). *)

  val next_phase : state -> phase_step
  (** Called before the first execution and after every phase-over verdict. *)

  val begin_run : state -> unit
  (** Called before each execution (reset per-run scheduler state). *)

  val listener : state -> (Sct_core.Event.t -> unit) option
  (** Event listener for the next execution (MapleAlg profiling); read
      after {!begin_run}. *)

  val choose : state -> Sct_core.Runtime.ctx -> Sct_core.Tid.t
  (** The scheduler: pick one of [ctx.c_enabled] at each scheduling point.
      The driver applies [choose st] once per execution, after
      {!begin_run}, and hands the result to the runtime, so a strategy may
      return a scheduler it already holds (a walk's own [choose]) and make
      each decision one call. *)

  val on_terminal : state -> Sct_core.Runtime.result -> verdict
  (** Observe the terminal state of the execution just run and advance the
      strategy (backtrack, move to the next seed / candidate, ...). *)
end

type t = (module STRATEGY)

(** {1 Schedule-tree walks}

    What a strategy needs from one walk of a (bounded) schedule tree. The
    plain walk ([Dfs.walk]) and the partial-order reduced walk
    ([Por.walk]) both provide it; [Bounded.strategy] runs one walk per
    bound level, or a single walk through {!of_walk}. *)

type walk = {
  begin_run : unit -> unit;  (** reset the per-run state *)
  choose : Sct_core.Runtime.ctx -> Sct_core.Tid.t;
  on_terminal : Sct_core.Runtime.result -> verdict;
      (** count the schedule or not, and backtrack; the phase is over when
          the tree is exhausted *)
  bound_cut : unit -> bool;
      (** the bound cut a child off: a larger bound level explores more *)
  filter_cut : unit -> bool;
      (** a fair or length filter cut an execution or a candidate: no bound
          level restores it, so an exhausted walk is not complete *)
}

val of_walk : technique:string -> walk -> t
(** The single-phase strategy over one walk: the campaign is complete when
    the walk exhausts with nothing cut by a filter. The walk is made once,
    by the caller, who may read it after the campaign. *)
