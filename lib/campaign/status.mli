(** Human-readable campaign progress, rendered from any store.

    Works on stores written by [campaign run], by sharded [campaign
    worker]s (before or after merging), or by the one-shot study runner —
    the report is a pure function of the journal records, sorted by
    (benchmark, technique) so its bytes are stable across filesystems and
    process interleavings. *)

val render : Format.formatter -> Sct_store.Db.t -> unit
(** One row per journalled cell: state, banked budget, slices taken,
    distinct-schedule coverage, current bound, and the coverage-growth
    rate ([distinct/slice]). A summary header counts cells, finished
    cells, slices and bugs. *)
