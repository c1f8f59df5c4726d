(* A small JSON tree with floating-point numbers. The store's own JSON
   module rejects floats by design (its values must round-trip exactly);
   the ledger's outputs are measurements, and BENCHMARK.json's bounds are
   fractions, so both need them. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Error of string

(* %.17g round-trips every double, so a value is printed with all its
   digits. JSON has no spelling for infinities or NaN. *)
let number f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else if Float.is_finite f then Printf.sprintf "%.17g" f
  else raise (Error (Printf.sprintf "non-finite number %f" f))

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (string_of_bool b)
  | Num f -> Buffer.add_string buf (number f)
  | Str s ->
      Buffer.add_char buf '"';
      String.iter
        (function
          | '"' -> Buffer.add_string buf "\\\""
          | '\\' -> Buffer.add_string buf "\\\\"
          | c when Char.code c < 0x20 ->
              Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
          | c -> Buffer.add_char buf c)
        s;
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
          write buf (Str k);
          Buffer.add_char buf ':';
          write buf v)
        l;
      Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  write buf v;
  Buffer.contents buf

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Error (Printf.sprintf "%s at offset %d" msg !pos)) in
  let rec ws () =
    if !pos < n && String.contains " \t\r\n" s.[!pos] then begin
      incr pos;
      ws ()
    end
  in
  let expect c =
    ws ();
    if !pos < n && s.[!pos] = c then incr pos
    else fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else fail "unknown literal"
  in
  let string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      incr pos;
      match c with
      | '"' -> Buffer.contents buf
      | '\\' ->
          if !pos >= n then fail "unterminated escape";
          let e = s.[!pos] in
          incr pos;
          (match e with
          | '"' | '\\' | '/' -> Buffer.add_char buf e
          | 'n' -> Buffer.add_char buf '\n'
          | 't' -> Buffer.add_char buf '\t'
          | 'r' -> Buffer.add_char buf '\r'
          | 'b' -> Buffer.add_char buf '\b'
          | 'f' -> Buffer.add_char buf '\012'
          | 'u' when !pos + 4 <= n -> (
              match int_of_string_opt ("0x" ^ String.sub s !pos 4) with
              | Some code when code < 0x80 ->
                  Buffer.add_char buf (Char.chr code);
                  pos := !pos + 4
              | _ -> fail "unsupported \\u escape")
          | _ -> fail "bad escape");
          go ()
      | c ->
          Buffer.add_char buf c;
          go ()
    in
    go ()
  in
  let rec value () =
    ws ();
    if !pos >= n then fail "unexpected end of input";
    match s.[!pos] with
    | '{' ->
        incr pos;
        ws ();
        if !pos < n && s.[!pos] = '}' then begin
          incr pos;
          Obj []
        end
        else
          let rec fields acc =
            let k = string () in
            expect ':';
            let v = value () in
            ws ();
            if !pos < n && s.[!pos] = ',' then begin
              incr pos;
              fields ((k, v) :: acc)
            end
            else begin
              expect '}';
              Obj (List.rev ((k, v) :: acc))
            end
          in
          fields []
    | '[' ->
        incr pos;
        ws ();
        if !pos < n && s.[!pos] = ']' then begin
          incr pos;
          Arr []
        end
        else
          let rec items acc =
            let v = value () in
            ws ();
            if !pos < n && s.[!pos] = ',' then begin
              incr pos;
              items (v :: acc)
            end
            else begin
              expect ']';
              Arr (List.rev (v :: acc))
            end
          in
          items []
    | '"' -> Str (string ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ ->
        let start = !pos in
        while !pos < n && String.contains "+-0123456789.eE" s.[!pos] do
          incr pos
        done;
        (match float_of_string_opt (String.sub s start (!pos - start)) with
        | Some f when !pos > start -> Num f
        | _ -> fail "bad number")
  in
  let v = value () in
  ws ();
  if !pos <> n then fail "trailing characters";
  v

let member k = function Obj l -> List.assoc_opt k l | _ -> None

let field k v =
  match member k v with
  | Some x -> x
  | None -> raise (Error (Printf.sprintf "missing field %S" k))

let to_num = function Num f -> f | _ -> raise (Error "expected a number")
let to_str = function Str s -> s | _ -> raise (Error "expected a string")
let to_list = function Arr l -> l | _ -> raise (Error "expected an array")
let to_obj = function Obj l -> l | _ -> raise (Error "expected an object")
let read_file path = of_string (In_channel.with_open_bin path In_channel.input_all)
