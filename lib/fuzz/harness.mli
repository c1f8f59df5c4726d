(** The fuzz campaign: generate, check, shrink, report.

    Program [i] of a campaign is a pure function of [(campaign seed, i)]
    — {!one_program} touches no shared mutable state, so campaigns can be
    sharded by index across a pool's domains and the reports reassembled in
    index order, producing output byte-identical to the sequential run
    for every [--jobs] value. *)

type counterexample = {
  cx_index : int;  (** program index within the campaign *)
  cx_seed : int;  (** the derived per-program seed (replays the program) *)
  cx_original : Ast.program;
  cx_shrunk : Ast.program;  (** locally minimal, still violating *)
  cx_violations : Oracle.violation list;  (** violations of [cx_shrunk] *)
}

type report = {
  r_index : int;
  r_seed : int;  (** derived per-program seed *)
  r_size : int;  (** AST size of the generated program *)
  r_counterexample : counterexample option;
}

type summary = {
  s_programs : int;
  s_counterexamples : counterexample list;  (** in campaign index order *)
}

val one_program :
  ?wrap:(Oracle.runner -> Oracle.runner) ->
  ?vocab:Gen.vocab ->
  cfg:Oracle.config ->
  campaign_seed:int ->
  int ->
  report
(** [one_program ~cfg ~campaign_seed index]: generate program [index]
    (under [vocab], default {!Gen.Classic}),
    run the oracle, and — on violation — shrink
    it to a locally minimal counterexample (the shrink predicate is "the
    oracle still reports at least one violation"). Pure in its arguments:
    safe to run on any domain. *)

val summarize : report list -> summary
(** Fold reports (given in index order) into a campaign summary. *)

val run :
  ?wrap:(Oracle.runner -> Oracle.runner) ->
  ?vocab:Gen.vocab ->
  cfg:Oracle.config ->
  seed:int ->
  count:int ->
  unit ->
  summary
(** The sequential campaign: programs [0 .. count-1]. *)

val dump : dir:string -> counterexample -> string
(** Write the counterexample as a replayable artifact
    [fuzz-s<seed>-i<index>.txt] under [dir] (created if missing,
    atomically, idempotent) and return its path. The file records the
    per-program seed, the violated invariants, and both the original and
    the shrunk program. *)

val pp_counterexample : Format.formatter -> counterexample -> unit
