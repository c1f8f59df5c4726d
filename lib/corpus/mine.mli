(** The mining pipeline: generate, survey, score, shrink, dedupe.

    Mining reuses the fuzz generator as a benchmark factory. Phase A
    ({!probe}) generates program [i] of the campaign and surveys it — race
    detection, promotion, then every configured technique through the real
    {!Sct_explore.Techniques.run} pipeline. [probe] is a pure function of
    [(config, index)], the same discipline as the fuzz harness: campaigns
    shard by index across a pool's domains and reassemble in index order,
    byte-identical for every [--jobs], and a per-index×technique cell
    journals into {!Sct_store.Db} for crash-safe resume (the caller owns
    the store and the pool; this module stays engine-agnostic).

    Phase B ({!collect}) is sequential and cheap relative to the survey:
    score each probe ({!Hardness.classify}), shrink the keepers with
    {!Sct_fuzz.Shrink} under the predicate "still the same hardness
    class", and dedupe behaviourally equal survivors by their
    {!Signature} digest — first index wins, so the output is
    deterministic in [(seed, count)]. *)

type config = {
  campaign_seed : int;
  count : int;
  vocab : Sct_fuzz.Gen.vocab;
  limit : int;  (** schedule budget per technique and program *)
  max_steps : int;
  race_runs : int;
  techniques : Sct_explore.Techniques.t list;
  shrink_checks : int;
      (** budget of hardness re-surveys per shrink (each candidate check
          re-runs the full survey, the expensive part of phase B) *)
  sig_limit : int;  (** schedule budget of the dedupe digest *)
}

val default_config : config
(** [campaign_seed = 0; count = 100; vocab = Full; limit = 300;
    max_steps = 5_000; race_runs = 3; techniques = Techniques.all;
    shrink_checks = 60; sig_limit = 400]. *)

type probe = {
  p_index : int;
  p_seed : int;  (** the derived per-program generator seed *)
  p_racy : int;  (** racy locations reported by the detection phase *)
  p_stats : (Sct_explore.Techniques.t * Sct_explore.Stats.t) list;
      (** in [config.techniques] order *)
}

val options_of : config -> seed:int -> Sct_explore.Techniques.options
(** The exploration options of one program's survey — also the options a
    resuming caller must fingerprint store cells with. *)

val survey :
  config -> seed:int -> Sct_fuzz.Ast.program ->
  int * (Sct_explore.Techniques.t * Sct_explore.Stats.t) list
(** Detect races, promote, run every configured technique; the first
    component is the racy-location count of the detection phase (what a
    resuming caller journals as the cell's [racy] field). *)

val probe : config -> int -> probe
(** [probe cfg i]: generate program [i] (from the derived seed, under
    [cfg.vocab]) and survey it. Pure in [(cfg, i)] — safe on any domain. *)

type candidate = {
  c_index : int;
  c_seed : int;
  c_program : Sct_fuzz.Ast.program;  (** shrunk *)
  c_original_size : int;
  c_size : int;  (** of the shrunk program *)
  c_digest : string;  (** {!Signature.digest} of the shrunk program *)
  c_hardness : Hardness.t;  (** of the shrunk program *)
}

type outcome = {
  o_programs : int;  (** probes examined (= [config.count]) *)
  o_hard : int;  (** probes scored keep-worthy before dedupe *)
  o_duplicates : int;  (** keepers dropped as behavioural duplicates *)
  o_candidates : candidate list;  (** survivors, in index order *)
}

val collect : config -> probe list -> outcome
(** Phase B over the probes (given in index order). *)

val run : config -> outcome
(** The sequential campaign: [collect cfg (List.map (probe cfg) [0..count-1])]. *)
