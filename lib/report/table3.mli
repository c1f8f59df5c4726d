(** Regenerates the paper's Table 3: per-benchmark results for IPB, IDB,
    DFS, Rand and MapleAlg, in the paper's column layout, plus a
    paper-vs-measured agreement summary. *)

val print : ?out:Format.formatter -> limit:int -> Run_data.row list -> unit
(** When any row carries stats for the bounding-axis techniques (Fair,
    Length, IVB, ITB), one [b/first/tot/cut/bug] column per present
    technique is appended after the paper's five — the paper's layout (and
    committed goldens) is byte-identical whenever they were not
    requested. *)

val print_agreement : ?out:Format.formatter -> Run_data.row list -> unit
(** For each benchmark and technique, compare "bug found?" (and the bound,
    for IPB/IDB) against the paper's row; print per-benchmark deviations
    and the aggregate agreement count. Yield-suite rows are excluded —
    the yield-loop family is a study extension with no paper row. *)
