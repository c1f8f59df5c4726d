(** Regenerates the paper's Table 3: per-benchmark results for IPB, IDB,
    DFS, Rand and MapleAlg, in the paper's column layout, plus a
    paper-vs-measured agreement summary. *)

val print : ?out:Format.formatter -> limit:int -> Run_data.row list -> unit
(** When any row carries stats for an extension technique, one column per
    present technique is appended after the paper's five, in the order
    PCT, SURW, Fair, Length, IVB, ITB: [first/bug] for the seeded presets
    PCT and SURW (like Rand), [b/first/tot/cut/bug] for the bounding axes.
    The paper's layout (and committed goldens) is byte-identical whenever
    they were not requested. The thr/en/pts columns are
    {!Run_data.shape}'s. *)

val print_agreement : ?out:Format.formatter -> Run_data.row list -> unit
(** For each benchmark and each of the paper's five techniques that ran,
    compare "bug found?" against the paper's row (for IPB and IDB: whether
    the paper reports a bound); print per-benchmark deviations and the
    aggregate agreement count.
    A technique that did not run is not compared. Yield-suite rows are
    excluded — the yield-loop family is a study extension with no paper
    row. *)
