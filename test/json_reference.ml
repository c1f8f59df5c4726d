type t =
  | Null
  | Bool of bool
  | Int of int
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of { pos : int; msg : string }

let parse_error pos msg = raise (Parse_error { pos; msg })

(* --- printing --- *)

let escape buf s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Str s ->
      Buffer.add_char buf '"';
      escape buf s;
      Buffer.add_char buf '"'
  | Arr l ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char buf ',';
          write buf v)
        l;
      Buffer.add_char buf ']'
  | Obj l ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_char buf '"';
          escape buf k;
          Buffer.add_string buf "\":";
          write buf v)
        l;
      Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  write buf v;
  Buffer.contents buf

(* --- parsing --- *)

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let skip_ws () =
    while
      !pos < n
      && match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
    do
      incr pos
    done
  in
  let expect c =
    if !pos < n && s.[!pos] = c then incr pos
    else parse_error !pos (Printf.sprintf "expected %C" c)
  in
  let literal lit v =
    let l = String.length lit in
    if !pos + l <= n && String.sub s !pos l = lit then begin
      pos := !pos + l;
      v
    end
    else parse_error !pos ("expected " ^ lit)
  in
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
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then parse_error !pos "unterminated string"
      else
        match s.[!pos] with
        | '"' ->
            incr pos;
            Buffer.contents buf
        | '\\' ->
            incr pos;
            if !pos >= n then parse_error !pos "unterminated escape";
            (match s.[!pos] with
            | '"' -> Buffer.add_char buf '"'; incr pos
            | '\\' -> Buffer.add_char buf '\\'; incr pos
            | '/' -> Buffer.add_char buf '/'; incr pos
            | 'n' -> Buffer.add_char buf '\n'; incr pos
            | 't' -> Buffer.add_char buf '\t'; incr pos
            | 'r' -> Buffer.add_char buf '\r'; incr pos
            | 'b' -> Buffer.add_char buf '\b'; incr pos
            | 'f' -> Buffer.add_char buf '\012'; incr pos
            | 'u' ->
                if !pos + 4 >= n then parse_error !pos "truncated \\u escape";
                (match int_of_string_opt ("0x" ^ String.sub s (!pos + 1) 4) with
                | Some code -> add_utf8 buf code
                | None -> parse_error !pos "bad \\u escape");
                pos := !pos + 5
            | c -> parse_error !pos (Printf.sprintf "bad escape \\%c" c));
            go ()
        | c ->
            Buffer.add_char buf c;
            incr pos;
            go ()
    in
    go ()
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> parse_error !pos "unexpected end of input"
    | Some 'n' -> literal "null" Null
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some '"' -> Str (parse_string ())
    | Some '[' ->
        incr pos;
        skip_ws ();
        if peek () = Some ']' then begin
          incr pos;
          Arr []
        end
        else
          let rec items acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                incr pos;
                items (v :: acc)
            | Some ']' ->
                incr pos;
                List.rev (v :: acc)
            | _ -> parse_error !pos "expected ',' or ']'"
          in
          Arr (items [])
    | Some '{' ->
        incr pos;
        skip_ws ();
        if peek () = Some '}' then begin
          incr pos;
          Obj []
        end
        else
          let rec fields acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                incr pos;
                fields ((k, v) :: acc)
            | Some '}' ->
                incr pos;
                List.rev ((k, v) :: acc)
            | _ -> parse_error !pos "expected ',' or '}'"
          in
          Obj (fields [])
    | Some ('-' | '0' .. '9') ->
        let start = !pos in
        if peek () = Some '-' then incr pos;
        while match peek () with Some '0' .. '9' -> true | _ -> false do
          incr pos
        done;
        (match peek () with
        | Some ('.' | 'e' | 'E') -> parse_error !pos "floats are not supported"
        | _ -> ());
        (match int_of_string_opt (String.sub s start (!pos - start)) with
        | Some i -> Int i
        | None -> parse_error start "bad number")
    | Some c -> parse_error !pos (Printf.sprintf "unexpected %C" c)
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then parse_error !pos "trailing garbage";
  v

let member k = function Obj l -> List.assoc_opt k l | _ -> None
