type t =
  | Null
  | Bool of bool
  | Int of int
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of { pos : int; msg : string }

let parse_error pos msg = raise (Parse_error { pos; msg })

(* Journals store every distinct schedule as an integer array, so the
   printer and the reader below run over megabytes of small integers on
   each campaign slice and resume. Both allocate nothing per byte: the
   printer only grows its output buffer, and the reader builds only what
   its caller asks for (a tree from [read_value], nothing from
   [iter_array] and [read_int]), plus a buffer for a string that holds
   escapes. *)

(* --- printing --- *)

let hex_digit d = "0123456789abcdef".[d]

let rec first_escape s i =
  if i = String.length s then i
  else
    match String.unsafe_get s i with
    | '"' | '\\' | '\000' .. '\031' -> i
    | _ -> first_escape s (i + 1)

(* The clean prefix, usually the whole string, is copied in one go. *)
let escape buf s =
  let clean = first_escape s 0 in
  Buffer.add_substring buf s 0 clean;
  for i = clean to String.length s - 1 do
    match String.unsafe_get s i with
    | '"' -> Buffer.add_string buf "\\\""
    | '\\' -> Buffer.add_string buf "\\\\"
    | '\n' -> Buffer.add_string buf "\\n"
    | '\r' -> Buffer.add_string buf "\\r"
    | '\t' -> Buffer.add_string buf "\\t"
    | '\000' .. '\031' as c ->
        Buffer.add_string buf "\\u00";
        Buffer.add_char buf (hex_digit (Char.code c lsr 4));
        Buffer.add_char buf (hex_digit (Char.code c land 15))
    | c -> Buffer.add_char buf c
  done

let add_string buf s =
  Buffer.add_char buf '"';
  escape buf s;
  Buffer.add_char buf '"'

(* [m <= 0], so [min_int] needs no special case. *)
let rec add_digits buf m =
  if m <= -10 then add_digits buf (m / 10);
  Buffer.add_char buf (Char.unsafe_chr (Char.code '0' - (m mod 10)))

let add_int buf i =
  if i < 0 then begin
    Buffer.add_char buf '-';
    add_digits buf i
  end
  else add_digits buf (-i)

let rec add buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> add_int buf i
  | Str s -> add_string buf s
  | Arr [] -> Buffer.add_string buf "[]"
  | Arr (v :: l) ->
      Buffer.add_char buf '[';
      add buf v;
      add_items buf l;
      Buffer.add_char buf ']'
  | Obj [] -> Buffer.add_string buf "{}"
  | Obj (f :: l) ->
      Buffer.add_char buf '{';
      add_field buf f;
      add_fields buf l;
      Buffer.add_char buf '}'

and add_items buf = function
  | [] -> ()
  | v :: l ->
      Buffer.add_char buf ',';
      add buf v;
      add_items buf l

and add_field buf (k, v) =
  add_string buf k;
  Buffer.add_char buf ':';
  add buf v

and add_fields buf = function
  | [] -> ()
  | f :: l ->
      Buffer.add_char buf ',';
      add_field buf f;
      add_fields buf l

let add_member buf sep name =
  Buffer.add_char buf sep;
  add_string buf name;
  Buffer.add_char buf ':'

let to_string v =
  let buf = Buffer.create 256 in
  add buf v;
  Buffer.contents buf

(* --- reading --- *)

type reader = { s : string; n : int; mutable pos : int }

let reader s = { s; n = String.length s; pos = 0 }
let looking_at st c = st.pos < st.n && String.unsafe_get st.s st.pos = c

let skip_ws st =
  while
    st.pos < st.n
    &&
    match String.unsafe_get st.s st.pos with
    | ' ' | '\t' | '\n' | '\r' -> true
    | _ -> false
  do
    st.pos <- st.pos + 1
  done

let expect st c =
  if looking_at st c then st.pos <- st.pos + 1
  else parse_error st.pos (Printf.sprintf "expected %C" c)

let rec matches s p lit i =
  i = String.length lit
  || (String.unsafe_get s (p + i) = String.unsafe_get lit i
     && matches s p lit (i + 1))

let literal st lit v =
  let l = String.length lit in
  if st.pos + l <= st.n && matches st.s st.pos lit 0 then begin
    st.pos <- st.pos + l;
    v
  end
  else parse_error st.pos ("expected " ^ lit)

let add_utf8 buf code =
  if code < 0x80 then Buffer.add_char buf (Char.chr code)
  else if code < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end

let hex_value = function
  | '0' .. '9' as c -> Char.code c - Char.code '0'
  | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
  | _ -> -1

(* The code of exactly four hex digits at [i], or a negative number. *)
let hex4 s i =
  let d k = hex_value (String.unsafe_get s (i + k)) in
  let d0 = d 0 and d1 = d 1 and d2 = d 2 and d3 = d 3 in
  if d0 lor d1 lor d2 lor d3 < 0 then -1
  else (d0 lsl 12) lor (d1 lsl 8) lor (d2 lsl 4) lor d3

(* The rest of a string from its first escape on, the cursor on the
   backslash and the clean part before it already in [buf]. *)
let rec escaped_string st buf =
  if st.pos >= st.n then parse_error st.pos "unterminated string"
  else
    match String.unsafe_get st.s st.pos with
    | '"' ->
        st.pos <- st.pos + 1;
        Buffer.contents buf
    | '\\' ->
        st.pos <- st.pos + 1;
        if st.pos >= st.n then parse_error st.pos "unterminated escape";
        (match String.unsafe_get st.s st.pos with
        | '"' -> Buffer.add_char buf '"'
        | '\\' -> Buffer.add_char buf '\\'
        | '/' -> Buffer.add_char buf '/'
        | 'n' -> Buffer.add_char buf '\n'
        | 't' -> Buffer.add_char buf '\t'
        | 'r' -> Buffer.add_char buf '\r'
        | 'b' -> Buffer.add_char buf '\b'
        | 'f' -> Buffer.add_char buf '\012'
        | 'u' ->
            if st.pos + 4 >= st.n then parse_error st.pos "truncated \\u escape";
            let code = hex4 st.s (st.pos + 1) in
            if code < 0 then parse_error st.pos "bad \\u escape";
            add_utf8 buf code;
            st.pos <- st.pos + 4
        | c -> parse_error st.pos (Printf.sprintf "bad escape \\%c" c));
        st.pos <- st.pos + 1;
        escaped_string st buf
    | c ->
        Buffer.add_char buf c;
        st.pos <- st.pos + 1;
        escaped_string st buf

(* A string at the cursor, after any whitespace the caller skipped. *)
let parse_string st =
  expect st '"';
  let start = st.pos in
  let i = ref start in
  while
    !i < st.n
    && match String.unsafe_get st.s !i with '"' | '\\' -> false | _ -> true
  do
    incr i
  done;
  if !i < st.n && String.unsafe_get st.s !i = '"' then begin
    st.pos <- !i + 1;
    String.sub st.s start (!i - start)
  end
  else begin
    st.pos <- !i;
    let buf = Buffer.create (16 + !i - start) in
    Buffer.add_substring buf st.s start (!i - start);
    escaped_string st buf
  end

(* Literals of up to 18 digits cannot overflow and are accumulated in
   place; longer ones go through [int_of_string_opt], which decides the
   range. *)
let parse_int st =
  let start = st.pos in
  let first = if looking_at st '-' then start + 1 else start in
  let i = ref first and acc = ref 0 in
  while
    !i < st.n && match String.unsafe_get st.s !i with '0' .. '9' -> true | _ -> false
  do
    acc := (10 * !acc) + Char.code (String.unsafe_get st.s !i) - Char.code '0';
    incr i
  done;
  st.pos <- !i;
  (if !i < st.n then
     match String.unsafe_get st.s !i with
     | '.' | 'e' | 'E' -> parse_error !i "floats are not supported"
     | _ -> ());
  let digits = !i - first in
  if digits = 0 then parse_error start "bad number"
  else if digits <= 18 then if first > start then - !acc else !acc
  else
    match int_of_string_opt (String.sub st.s start (!i - start)) with
    | Some v -> v
    | None -> parse_error start "bad number"

let read_int st =
  skip_ws st;
  parse_int st

(* Arrays and objects share their punctuation: [nonempty] runs just past
   the opening bracket, [more] just after an element. *)
let nonempty st close =
  skip_ws st;
  if looking_at st close then begin
    st.pos <- st.pos + 1;
    false
  end
  else true

let more st close msg =
  skip_ws st;
  if looking_at st ',' then begin
    st.pos <- st.pos + 1;
    true
  end
  else if looking_at st close then begin
    st.pos <- st.pos + 1;
    false
  end
  else parse_error st.pos msg

let more_items st = more st ']' "expected ',' or ']'"
let more_fields st = more st '}' "expected ',' or '}'"

let member_name st =
  skip_ws st;
  let k = parse_string st in
  skip_ws st;
  expect st ':';
  k

let iter_array st f =
  skip_ws st;
  expect st '[';
  if nonempty st ']' then begin
    f st;
    while more_items st do
      f st
    done
  end

let iter_object st f =
  skip_ws st;
  expect st '{';
  if nonempty st '}' then begin
    let continue = ref true in
    while !continue do
      f (member_name st) st;
      continue := more_fields st
    done
  end

(* The first byte of a value decides its kind; [read_value] and
   [skip_value] take the same branches, so they accept and refuse the same
   inputs. *)
let value_start st =
  skip_ws st;
  if st.pos >= st.n then parse_error st.pos "unexpected end of input";
  String.unsafe_get st.s st.pos

let unexpected st c = parse_error st.pos (Printf.sprintf "unexpected %C" c)

let rec read_value st =
  match value_start st with
  | 'n' -> literal st "null" Null
  | 't' -> literal st "true" (Bool true)
  | 'f' -> literal st "false" (Bool false)
  | '"' -> Str (parse_string st)
  | '[' ->
      st.pos <- st.pos + 1;
      if nonempty st ']' then Arr (read_items st) else Arr []
  | '{' ->
      st.pos <- st.pos + 1;
      if nonempty st '}' then Obj (read_fields st) else Obj []
  | '-' | '0' .. '9' -> Int (parse_int st)
  | c -> unexpected st c

and[@tail_mod_cons] read_items st =
  let v = read_value st in
  if more_items st then v :: read_items st else [ v ]

and[@tail_mod_cons] read_fields st =
  let k = member_name st in
  let v = read_value st in
  if more_fields st then (k, v) :: read_fields st else [ (k, v) ]

let rec skip_value st =
  match value_start st with
  | 'n' -> literal st "null" ()
  | 't' -> literal st "true" ()
  | 'f' -> literal st "false" ()
  | '"' -> ignore (parse_string st : string)
  | '[' -> iter_array st skip_value
  | '{' -> iter_object st skip_member
  | '-' | '0' .. '9' -> ignore (parse_int st : int)
  | c -> unexpected st c

and skip_member _ st = skip_value st

let finish st =
  skip_ws st;
  if st.pos <> st.n then parse_error st.pos "trailing garbage"

let of_string s =
  let st = reader s in
  let v = read_value st in
  finish st;
  v

let member k = function Obj l -> List.assoc_opt k l | _ -> None
