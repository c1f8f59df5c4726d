(** Versioned JSON codecs for the study's persisted values.

    Every string form produced by the [encode_*] functions is a single JSON
    object carrying a format-version tag, [{"v":1,...}]; the [decode_*]
    functions refuse tags newer than {!version}, so an old build fails
    loudly on a store written by a newer one instead of misreading it.
    Decoding an encoding is the identity (up to [Stats.equal] /
    [Schedule.equal] / [Outcome.bug_equal]); the qcheck suite in
    [test/test_store.ml] checks these laws, and fixture tests pin the
    version-1 wire format. It also checks the streaming codec against the
    tree codec it replaced ([test/codec_reference.ml]): the same bytes, and
    the same value or a refusal on any input. *)

exception Error of string
(** Raised by every decoder on malformed or version-incompatible input. *)

val version : int
(** The current format version: 1. *)

(** {1 Tree-level codecs}

    The small values. Schedules, witnesses and statistics, whose thread-id
    arrays fill nearly every journal byte, have no tree form: they stream
    ({!add_stats}, {!read_stats} and the string forms). *)

val bug_to_json : Sct_core.Outcome.bug -> Json.t
val bug_of_json : Json.t -> Sct_core.Outcome.bug
val options_to_json : Sct_explore.Techniques.options -> Json.t

val options_members : Sct_explore.Techniques.options -> (string * Json.t) list
(** The members of {!options_to_json} in its order, without the v1
    constants [jobs] and [split_depth]: what the store fingerprints
    ([Db.fingerprint]) hash. *)

val options_of_json : Json.t -> Sct_explore.Techniques.options

type progress = {
  p_consumed : int;
      (** terminal schedules banked by previous slices of the cell; the
          next slice resumes at exactly this budget offset *)
  p_slices : int;  (** number of slices taken so far *)
  p_done : bool;  (** the cell exhausted its budget or its space *)
}
(** The slice-resumable campaign record: how far a campaign-run cell has
    progressed. Journal records written by the one-shot study runner carry
    no progress (their wire format is unchanged and implies a finished
    cell); campaign records carry one on every slice, with [p_done]
    marking the final slice. *)

val progress_to_json : progress -> Json.t
val progress_of_json : Json.t -> progress

(** {1 Statistics, streamed}

    The one codec of statistics. Distinct-schedule sets and witness
    schedules go straight between packed keys or thread-id lists and the
    text, with no tree node per thread id; the other members go through
    small trees. *)

val add_stats : Buffer.t -> Sct_explore.Stats.t -> unit
(** Print the statistics object into the buffer. *)

val read_stats : Json.reader -> Sct_explore.Stats.t
(** Read a statistics object at the cursor. Members may come in any order
    with any whitespace; unknown members are skipped, and of a repeated
    member the first wins.
    @raise Error on a missing or ill-typed member, on a negative count,
    bound, [to_first_bug], witness [by]/[pc]/[dc], thread id or deadlock
    thread id, naming the field, and on a [distinct] array whose schedules
    are not strictly increasing (the only order {!add_stats} writes),
    naming the index: such a record is damaged, and {!Db.open_} skips it
    like a torn one.
    @raise Json.Parse_error on malformed JSON. *)

(** {1 Version-tagged string forms}

    [{"v":1,"kind":payload}]. A decoder reads the whole string, so any
    malformed JSON in it, even after the payload, is an {!Error}. *)

val encode_schedule : Sct_core.Schedule.t -> string
val decode_schedule : string -> Sct_core.Schedule.t
val encode_bug : Sct_core.Outcome.bug -> string
val decode_bug : string -> Sct_core.Outcome.bug
val encode_witness : Sct_explore.Stats.bug_witness -> string
val decode_witness : string -> Sct_explore.Stats.bug_witness
val encode_options : Sct_explore.Techniques.options -> string
val decode_options : string -> Sct_explore.Techniques.options
val encode_stats : Sct_explore.Stats.t -> string
val decode_stats : string -> Sct_explore.Stats.t
val encode_progress : progress -> string
val decode_progress : string -> progress

(** {1 Helpers shared with the journal} *)

val check_version : Json.t -> unit
(** Validate the ["v"] tag of a decoded record. @raise Error otherwise. *)

val read_object : Json.reader -> (string * (Json.reader -> unit)) list -> Json.t
(** [read_object r streamed] reads an object at the cursor. The first
    occurrence of a member named in [streamed] is passed to its reader,
    which must read exactly the value (typically into a reference), and
    later ones are skipped; every other member is returned, in order, as a
    small tree. {!field} and {!opt_field} on the result therefore see what
    they would see on the tree of the whole object. *)

val streamed : Json.t -> string -> 'a option -> 'a
(** [streamed j name v] is the value a {!read_object} reader stored in [v]
    for member [name]. @raise Error naming the member if it was absent. *)

val field : Json.t -> string -> Json.t
val opt_field : Json.t -> string -> (Json.t -> 'a) -> 'a option
val get_int : Json.t -> int
val get_bool : Json.t -> bool
val get_string : Json.t -> string
val schedule_line : Sct_core.Schedule.t -> string
(** The plain comma-separated rendering accepted by
    [Sct_explore.Replay.parse] (unlike [Schedule.to_string], which uses
    display brackets). *)
