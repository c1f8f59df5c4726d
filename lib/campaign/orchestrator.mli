(** The campaign loop: lease cells budget slices until every cell is done.

    One iteration picks a cell ({!Scheduler.pick}), runs the data-race
    detection phase for its benchmark if this process has not yet (the
    detection is deterministic, so re-running it after a restart
    reproduces the promoted-location set the journalled slices were
    explored under), grants the cell one slice ({!Runner.run_slice}) and
    journals the cumulative snapshot. The loop's only durable state is
    the store: restarting after any crash — including SIGKILL mid-write —
    resumes the exact schedule, and a finished campaign's tables are
    byte-identical to the one-shot study runner's under either policy.

    Each call also owns a {!Runner.sessions} table, so a tree cell's walk
    stays alive between its slices and each slice continues it. The table
    is a cache whose hits and misses journal identical records: a
    restarted process starts with an empty one and re-runs each
    unfinished tree cell's journalled prefix once. *)

type outcome = {
  cells : int;  (** cells in the campaign grid *)
  finished : int;  (** cells finished when the loop stopped *)
  slices : int;  (** slices granted by {e this} process *)
}

val run :
  ?policy:Scheduler.policy ->
  ?slice:int ->
  ?on_slice:(Cell.t -> Sct_store.Codec.progress -> unit) ->
  pool:Sct_parallel.Pool.t ->
  db:Sct_store.Db.t ->
  Cell.t list ->
  outcome
(** Run the campaign over [cells] to completion, resuming from whatever
    the store already holds. [policy] defaults to [Uniform], [slice] (the
    per-lease budget in schedules) to 500. [on_slice] is called after each
    slice's record is journalled — a progress hook for the CLI and the
    test suite's interruption harness.
    @raise Invalid_argument if [slice < 1] or two cells share a key. *)
