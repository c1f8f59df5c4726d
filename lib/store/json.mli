(** A minimal, dependency-free JSON tree, with the printer and reader it is
    built on.

    The store's on-disk formats (journal records, artifact headers, encoded
    statistics) only need objects, arrays, strings, integers, booleans and
    null — floats are deliberately rejected so every value round-trips
    exactly, which the byte-identical resume guarantee depends on. Strings
    are treated as byte sequences: bytes outside ASCII pass through
    untouched on both sides, and control characters are escaped as
    [\uNNNN].

    Small values go through the tree ({!to_string}, {!of_string}). Large
    ones — the thread-id arrays of distinct-schedule sets and witness
    schedules — go straight between a caller's data and the text through
    the primitives below, which allocate nothing per byte. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of { pos : int; msg : string }
(** Raised by {!of_string} and by every reader function; [pos] is a byte
    offset into the input. *)

val to_string : t -> string
(** Compact (whitespace-free) rendering; object fields keep their order, so
    encoding is deterministic. *)

val of_string : string -> t
(** Parse one JSON value; trailing garbage is an error.
    @raise Parse_error on malformed input. *)

val member : string -> t -> t option
(** [member k (Obj fields)] is the value bound to [k], if any; [None] on
    non-objects. *)

(** {1 Printing into a caller's buffer}

    {!to_string} is {!add} into a fresh buffer. A streaming printer writes
    an object with {!add_member} and [Buffer.add_char buf '}'], and an
    array with [Buffer.add_char]. *)

val add : Buffer.t -> t -> unit
val add_int : Buffer.t -> int -> unit

val add_string : Buffer.t -> string -> unit
(** A quoted string, escaped as {!to_string} escapes it. *)

val add_member : Buffer.t -> char -> string -> unit
(** [add_member buf sep name] writes [sep] — ['{'] before an object's
    first member, [','] before the others — then [name] and [':']. *)

(** {1 Reading}

    A cursor over one string. Every function skips the whitespace before
    the value it reads and raises {!Parse_error} exactly where
    {!of_string} would, since {!of_string} is {!read_value} then
    {!finish}. *)

type reader

val reader : string -> reader
(** A cursor at the start of the string. *)

val skip_ws : reader -> unit

val looking_at : reader -> char -> bool
(** The byte under the cursor is the given one (no whitespace skipped). *)

val read_int : reader -> int
val read_value : reader -> t

val skip_value : reader -> unit
(** Check one value and move past it, building nothing but the strings it
    holds. *)

val iter_array : reader -> (reader -> unit) -> unit
(** [iter_array r f] reads an array, calling [f r] once per element with
    the cursor on it; [f] must read exactly that element. *)

val iter_object : reader -> (string -> reader -> unit) -> unit
(** [iter_object r f] reads an object, calling [f name r] once per member
    in order, duplicates included, with the cursor on the member's value;
    [f] must read exactly that value. *)

val finish : reader -> unit
(** Only whitespace is left. @raise Parse_error ["trailing garbage"]
    otherwise. *)
