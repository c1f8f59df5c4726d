(** Machine-readable exports of the study's results, for plotting the
    figures with external tools. *)

val table3 : ?out:Format.formatter -> limit:int -> Run_data.row list -> unit
(** One CSV row per benchmark with every Table 3 column: the paper's five
    techniques' fields ({!header}), then a column group per extension
    some row ran ({!Run_data.extensions}), prefixed with its lowercase
    name — [first,buggy,distinct] for PCT and SURW,
    [bound,first,total,cut,buggy] for the bounding axes. *)

val header : string
(** The paper's columns: {!table3}'s header line when no row ran an
    extension. *)
