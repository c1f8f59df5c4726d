(** Budget allocation across the campaign's cells.

    The scheduler decides which cell gets the next budget slice. Its
    entire state is a pure function of the store's journal records
    ({!state_of_entry}) — nothing lives only in memory — so a campaign
    killed at any instant (even SIGKILL mid-write, which at worst tears
    the final journal line) resumes into exactly the scheduling state it
    died in.

    The pick is a deterministic round-robin. Since each cell's exploration
    is itself deterministic and slice-resumable (see {!Runner}), the final
    per-cell statistics of a completed campaign do not depend on the order
    of its slices: the scheduler only chooses their interleaving, never
    their content. *)

type state = {
  s_consumed : int;  (** budget banked by previous slices *)
  s_slices : int;  (** slices taken so far *)
  s_coverage : int;  (** [Stats.coverage]: distinct schedules (or total) *)
  s_bound : int option;  (** current bound level, if bounded *)
  s_finished : bool;
}

val state_of_entry : Sct_store.Db.entry -> state
(** The scheduling state encoded in one journal record. A record written
    by the one-shot study runner (no progress field) reads as one finished
    slice that consumed the whole run. *)

val pick : state option array -> int option
(** The index of the cell to run next ([None] = campaign finished): an
    unfinished cell with the fewest slices, ties broken by grid index, so
    every unfinished cell gets a slice before any cell gets its next one
    and the first pass runs cells in the one-shot study runner's order.
    The array is indexed by grid position; [None] elements are cells never
    journalled. *)
