(** The bounding axes beyond the paper's preemption/delay study, each a
    first-class {!Strategy.STRATEGY} run by the same generic
    {!Driver.explore} loop as every other technique.

    - {b Fair bounding} ({!fair}): iterative preemption bounding composed
      with a fairness filter — a thread may [yield] only while its per-run
      yield count stays within the bound of the least-yielding live thread.
      Plain (preemption-)bounded DFS diverges or exhausts its budget on
      spin/yield loops, whose schedule trees are astronomically wide in the
      yield dimension; the fair filter cuts exactly the unfair spins (a
      [v_cut] verdict charged against the budget as [Stats.cut_runs]), so
      yield-loop benchmarks terminate. This is dejafu's [sctFairBound]
      (default bound 5) composed with preemption bounding.
    - {b Length bounding} ({!length}): unbounded DFS over executions of at
      most [bound] scheduling decisions; longer executions are cut.
      dejafu's [sctLengthBound] (default 250).
    - {b Variable bounding} ({!variable}): iterative bounding on the number
      of {e distinct shared objects} preempted around — level [c] counts
      the schedules whose preemption footprint holds exactly [c] object
      ids (see {!Dfs.bound.Variable}).
    - {b Thread bounding} ({!threads}): iterative bounding on the number of
      {e distinct threads} preempted (see {!Dfs.bound.Threads}). Both
      footprint axes follow the local/variable/thread bounding proposals of
      arXiv:1207.2544.

    None of the four is batched or reduced: [Techniques.run] sends only
    DFS, IPB and IDB to {!Prefix_exec} and {!Por.Walk}, since the
    filters and footprint bounds do not survive restructuring the tree.
    Like every tree walk their cells run on one domain
    ([Strategy.Sequential]) for every [--jobs] value, so campaign
    statistics stay byte-identical. *)

val default_fair_bound : int
(** [5], dejafu's default. *)

val default_length_bound : int
(** [250], dejafu's default. *)

val fair : ?max_levels:int -> ?bound:int -> unit -> Strategy.t
(** Technique ["Fair"]: iterative preemption bounding over executions
    fairly bounded by [bound] (default {!default_fair_bound}). *)

val length : ?bound:int -> unit -> Strategy.t
(** Technique ["Length"]: single-phase unbounded DFS over executions of at
    most [bound] (default {!default_length_bound}) decisions. *)

val variable : ?max_levels:int -> unit -> Strategy.t
(** Technique ["IVB"]: iterative variable bounding. *)

val threads : ?max_levels:int -> unit -> Strategy.t
(** Technique ["ITB"]: iterative thread bounding. *)
