(** The cross-technique differential oracle.

    One generated program is run under every technique of the study
    (DFS, IPB, IDB, Rand, PCT, MapleAlg, SURW, and the Fair/Length/IVB/ITB
    bounding axes) through the real pipeline —
    race detection, promotion, then {!Sct_explore.Techniques.run} — and the
    relational guarantees the paper's headline claims rest on are checked:

    - {b Inclusions} (paper §6): on programs whose schedule space DFS
      exhausts within the budget, a DFS-found bug must also be found by IPB
      and by IDB; if exhaustive DFS finds no bug, {e no} technique may
      report one, IPB/IDB must also complete, and all three must count the
      same number of distinct terminal schedules.
    - {b POR equivalence} (paper §7): with every location visible, sleep
      sets, DPOR and their combination must agree with full DFS on
      bug-freedom whenever full DFS completes, while never counting more
      terminal schedules.
    - {b BPOR bound equivalence}: at every preemption/delay bound level
      [c] in [0..2], the bound-parameterized reduction walk must agree
      with the plain bounded walk on bug-freedom and exhaustion while
      counting no more schedules — the conservative-backtracking soundness
      law of por.mli; sleep-only mode under a finite bound must degenerate
      to the plain walk exactly. At the campaign level, a POR-composed
      IPB/IDB run must find its bug at the same bound level as the plain
      campaign whenever both resolve within the budget.
    - {b Witness replayability} (paper §1): every reported bug witness must
      replay through {!Sct_explore.Replay} to the same bug, by the same
      thread, with the same preemption and delay counts.
    - {b Axes agreement / no bug lost}: a Fair/Length/IVB/ITB campaign
      reporting [complete] provably covered the whole schedule space, so
      it must agree with exhaustive DFS on bug-freedom (and, two plain
      walks of one tree, on the schedule count); Fair at an unreachable
      yield bound must be byte-identical to plain IPB, and Length at an
      unreachable cap byte-identical to plain DFS, modulo the technique
      name — nothing is cut, so nothing is lost.
    - {b Schedule-count algebra}: counted schedules plus cut runs never
      exceed the budget; [hit_limit] means the budget was spent exactly
      (cut executions charge it without counting); only the
      execution-level filters (Fair, Length) may cut runs; distinct
      schedules are between 1 and [total]; bound-[c] walk counts are
      monotone in [c], and delay-bounded counts never exceed
      preemption-bounded counts at the same level (DC ≥ PC, paper §2);
      witness bound consistency for IPB ([w_pc = bound]) and IDB
      ([w_dc = bound]).
    - {b Shard-merge determinism}: for the seed-sharded techniques
      (Rand, PCT, SURW), the two half-range shards [\[0, m/2)] and
      [\[m/2, m)] of the sub-budget [m = min limit 200], merged with
      {!Sct_explore.Stats.merge}, must be {!Sct_explore.Stats.equal} to
      the sequential campaign at [m] — what [--jobs 1] prints, and so the
      algebra that makes [--jobs N] byte-identical.

    The reference campaigns at the sub-budget [m] (the sequential
    Rand/PCT/SURW campaign for shard-merge; plain IPB and plain DFS for
    the unreachable-bound axes check) come off the main campaign's
    {!Sct_explore.Techniques.session}: the main campaign advances to [m],
    keeps those statistics, then continues to [limit], so a reference
    executes nothing. By the session law this equals a fresh run at [m].
    IPB and DFS keep one only when neither [por] nor [prefix_batch] is set,
    since only then are the main campaign's options the reference's; in
    every other case the reference is a fresh run.

    The oracle is parametric in the per-technique runner so the test suite
    can inject a deliberately broken strategy and assert that the harness
    catches (and shrinks) the violation. *)

type config = {
  limit : int;  (** schedule budget per technique campaign *)
  max_steps : int;  (** per-execution live-lock guard *)
  race_runs : int;  (** executions of the race-detection phase *)
  prefix_batch : bool;
      (** run DFS/IPB/IDB campaigns on the prefix-memoizing batched
          executor, and additionally cross-check each batched campaign
          against the plain driver: identical statistics modulo the step
          counters, which must conserve total work
          ([executed + saved = unbatched executed]). *)
  por : Sct_explore.Por.mode option;
      (** compose the main DFS/IPB/IDB campaigns with partial-order
          reduction, so every generic invariant (algebra, witness replay,
          inclusions' bug agreement) also exercises the reduced walks. The
          dedicated BPOR cross-checks run regardless of this field (the
          campaign-level comparison uses [Dpor_sleep] when unset); the
          inclusion count identities are skipped under [por], where each
          cell reduces its tree differently. *)
  techniques : Sct_explore.Techniques.t list;
      (** techniques the oracle runs and cross-checks. Invariants that
          relate specific techniques degrade gracefully: the inclusion
          checks need DFS, IPB and IDB all selected; the POR and
          bound-algebra cross-checks need DFS; shard-merge runs on the
          selected subset of [Rand; PCT; SURW]. *)
}

val default_config : config
(** [limit = 500; max_steps = 5_000; race_runs = 5;
    prefix_batch = false; por = None; techniques = Techniques.all]. *)

type violation = {
  v_invariant : string;  (** stable invariant identifier, e.g. ["inclusion"] *)
  v_detail : string;
}

val pp_violation : Format.formatter -> violation -> unit

type runner = Sct_explore.Techniques.t -> Sct_explore.Stats.t
(** A per-technique campaign, already closed over program and options. *)

val check :
  ?wrap:(runner -> runner) ->
  config ->
  seed:int ->
  (unit -> unit) ->
  violation list
(** [check cfg ~seed program] returns every invariant violation observed
    (empty on a healthy build). [seed] seeds the randomised techniques and
    the race-detection phase. [wrap] (default: identity) intercepts the
    technique runner — test-only, for fault injection. The sub-budget
    references are kept by the runner beneath [wrap], so a fault [wrap]
    injects into a main campaign never reaches them; a [wrap] that never
    calls its runner leaves fresh runs as references. *)
