module Ast = Sct_fuzz.Ast

let header = "# sct-corpus program v1"

(* ---- printing ---------------------------------------------------------- *)

let rec print_stmt buf indent (s : Ast.stmt) =
  let pad () = Buffer.add_string buf (String.make indent ' ') in
  let atom fmt = Printf.ksprintf (fun l -> pad (); Buffer.add_string buf l; Buffer.add_char buf '\n') fmt in
  let block head body =
    pad ();
    Buffer.add_string buf head;
    if body = [] then Buffer.add_string buf ")\n"
    else begin
      Buffer.add_char buf '\n';
      print_body buf (indent + 2) body;
      (* close on the last child's line *)
      let n = Buffer.length buf in
      if n > 0 && Buffer.nth buf (n - 1) = '\n' then
        Buffer.truncate buf (n - 1);
      Buffer.add_string buf ")\n"
    end
  in
  match s with
  | Ast.Yield -> atom "(yield)"
  | Ast.Write { var; value } -> atom "(write %d %d)" var value
  | Ast.Incr { var } -> atom "(incr %d)" var
  | Ast.Check_eq { var; expect } -> atom "(check %d %d)" var expect
  | Ast.Atomic_incr -> atom "(atomic-incr)"
  | Ast.Atomic_cas { expect; repl } -> atom "(cas %d %d)" expect repl
  | Ast.Sem_wait -> atom "(sem-wait)"
  | Ast.Sem_post -> atom "(sem-post)"
  | Ast.Cond_signal -> atom "(signal)"
  | Ast.Cond_broadcast -> atom "(broadcast)"
  | Ast.Cond_wait { m } -> atom "(cond-wait %d)" m
  | Ast.Barrier_wait -> atom "(barrier)"
  | Ast.Arr_set { index; value } -> atom "(arr-set %d %d)" index value
  | Ast.Arr_get { index } -> atom "(arr-get %d)" index
  | Ast.Join { thread } -> atom "(join %d)" thread
  | Ast.Await { slot } -> atom "(await %d)" slot
  | Ast.Chan_send { ch; value } -> atom "(send %d %d)" ch value
  | Ast.Chan_recv { ch } -> atom "(recv %d)" ch
  | Ast.Wq_put { task } -> atom "(wq-put %d)" task
  | Ast.Wq_take -> atom "(wq-take)"
  | Ast.Lock { m; body } -> block (Printf.sprintf "(lock %d" m) body
  | Ast.Try_lock { m; body } -> block (Printf.sprintf "(trylock %d" m) body
  | Ast.Loop { times; body } -> block (Printf.sprintf "(loop %d" times) body
  | Ast.Future { slot; body } -> block (Printf.sprintf "(future %d" slot) body
  | Ast.If_eq { var; expect; then_; else_ } ->
      pad ();
      Buffer.add_string buf (Printf.sprintf "(if %d %d\n" var expect);
      print_branch buf (indent + 2) "then" then_;
      print_branch buf (indent + 2) "else" else_;
      let n = Buffer.length buf in
      if n > 0 && Buffer.nth buf (n - 1) = '\n' then Buffer.truncate buf (n - 1);
      Buffer.add_string buf ")\n"

and print_branch buf indent kw body =
  Buffer.add_string buf (String.make indent ' ');
  Buffer.add_char buf '(';
  Buffer.add_string buf kw;
  if body = [] then Buffer.add_string buf ")\n"
  else begin
    Buffer.add_char buf '\n';
    print_body buf (indent + 2) body;
    let n = Buffer.length buf in
    if n > 0 && Buffer.nth buf (n - 1) = '\n' then Buffer.truncate buf (n - 1);
    Buffer.add_string buf ")\n"
  end

and print_body buf indent body = List.iter (print_stmt buf indent) body

let to_string (p : Ast.program) =
  let buf = Buffer.create 512 in
  Buffer.add_string buf header;
  Buffer.add_char buf '\n';
  List.iter
    (fun body ->
      Buffer.add_string buf "(thread";
      if body = [] then Buffer.add_string buf ")\n"
      else begin
        Buffer.add_char buf '\n';
        print_body buf 2 body;
        let n = Buffer.length buf in
        if n > 0 && Buffer.nth buf (n - 1) = '\n' then
          Buffer.truncate buf (n - 1);
        Buffer.add_string buf ")\n"
      end)
    p.Ast.threads;
  Buffer.contents buf

(* ---- parsing ----------------------------------------------------------- *)

(* Every token and form carries the byte offset where it starts, so that
   each error can point into the input. *)
type sexp = Atom of int * string | List of int * sexp list

exception Bad of int * string

let bad off fmt = Printf.ksprintf (fun msg -> raise (Bad (off, msg))) fmt

let offset_of = function Atom (off, _) | List (off, _) -> off

let tokenize src =
  let n = String.length src in
  let toks = ref [] in
  let i = ref 0 in
  while !i < n do
    match src.[!i] with
    | '#' -> while !i < n && src.[!i] <> '\n' do incr i done
    | ' ' | '\t' | '\r' | '\n' -> incr i
    | '(' -> toks := `L !i :: !toks; incr i
    | ')' -> toks := `R !i :: !toks; incr i
    | _ ->
        let start = !i in
        while
          !i < n
          && not
               (match src.[!i] with
               | ' ' | '\t' | '\r' | '\n' | '(' | ')' | '#' -> true
               | _ -> false)
        do
          incr i
        done;
        toks := `A (start, String.sub src start (!i - start)) :: !toks
  done;
  List.rev !toks

let parse_sexps toks =
  (* one pass with an explicit stack of open lists, each remembering the
     offset of its '(' *)
  let rec go stack acc = function
    | [] -> (
        match stack with
        | [] -> List.rev acc
        | (off, _) :: _ ->
            bad off "unbalanced parentheses: this '(' is never closed")
    | `A (off, a) :: rest -> go stack (Atom (off, a) :: acc) rest
    | `L off :: rest -> go ((off, acc) :: stack) [] rest
    | `R off :: rest -> (
        match stack with
        | [] -> bad off "unbalanced parentheses: stray ')'"
        | (start, parent) :: stack ->
            go stack (List (start, List.rev acc) :: parent) rest)
  in
  go [] [] toks

let rec sexp_to_string = function
  | Atom (_, a) -> a
  | List (_, l) -> "(" ^ String.concat " " (List.map sexp_to_string l) ^ ")"

(* Integers are plain decimal, what [to_string]'s [%d] prints:
   [int_of_string] alone would also accept [0x1], [0b11], [0o7], [+1] and
   [1_0]. *)
let is_decimal a =
  let digits =
    if String.starts_with ~prefix:"-" a then
      String.sub a 1 (String.length a - 1)
    else a
  in
  digits <> "" && String.for_all (fun c -> c >= '0' && c <= '9') digits

let int_of = function
  | Atom (off, a) when not (is_decimal a) ->
      bad off "expected a decimal integer, got %s" a
  | Atom (off, a) -> (
      match int_of_string_opt a with
      | Some n -> n
      | None -> bad off "integer out of range: %s" a)
  | List (off, _) as s ->
      bad off "expected a decimal integer, got %s" (sexp_to_string s)

(* Two integers, read left to right so that an error names the first bad
   one (record fields and tuple components have no evaluation order). *)
let ints2 a b =
  let x = int_of a in
  (x, int_of b)

(* Statement forms are read left to right for the same reason: [body_of]
   is [List.map], which applies in order. *)
let rec stmt_of (s : sexp) : Ast.stmt =
  match s with
  | Atom (off, a) -> bad off "expected a statement form, got %s" a
  | List (off, Atom (_, kw) :: args) -> (
      let wrong () = bad off "bad arity in %s" (sexp_to_string s) in
      match (kw, args) with
      | "yield", [] -> Ast.Yield
      | "write", [ v; n ] ->
          let var, value = ints2 v n in
          Ast.Write { var; value }
      | "incr", [ v ] -> Ast.Incr { var = int_of v }
      | "check", [ v; n ] ->
          let var, expect = ints2 v n in
          Ast.Check_eq { var; expect }
      | "atomic-incr", [] -> Ast.Atomic_incr
      | "cas", [ e; r ] ->
          let expect, repl = ints2 e r in
          Ast.Atomic_cas { expect; repl }
      | "sem-wait", [] -> Ast.Sem_wait
      | "sem-post", [] -> Ast.Sem_post
      | "signal", [] -> Ast.Cond_signal
      | "broadcast", [] -> Ast.Cond_broadcast
      | "cond-wait", [ m ] -> Ast.Cond_wait { m = int_of m }
      | "barrier", [] -> Ast.Barrier_wait
      | "arr-set", [ i; v ] ->
          let index, value = ints2 i v in
          Ast.Arr_set { index; value }
      | "arr-get", [ i ] -> Ast.Arr_get { index = int_of i }
      | "join", [ t ] -> Ast.Join { thread = int_of t }
      | "await", [ s ] -> Ast.Await { slot = int_of s }
      | "send", [ c; v ] ->
          let ch, value = ints2 c v in
          Ast.Chan_send { ch; value }
      | "recv", [ c ] -> Ast.Chan_recv { ch = int_of c }
      | "wq-put", [ t ] -> Ast.Wq_put { task = int_of t }
      | "wq-take", [] -> Ast.Wq_take
      | "lock", m :: body ->
          let m = int_of m in
          Ast.Lock { m; body = body_of body }
      | "trylock", m :: body ->
          let m = int_of m in
          Ast.Try_lock { m; body = body_of body }
      | "loop", n :: body ->
          let times = int_of n in
          Ast.Loop { times; body = body_of body }
      | "future", sl :: body ->
          let slot = int_of sl in
          Ast.Future { slot; body = body_of body }
      | ( "if",
          [
            v;
            e;
            List (_, Atom (_, "then") :: then_);
            List (_, Atom (_, "else") :: else_);
          ] ) ->
          let var, expect = ints2 v e in
          let then_ = body_of then_ in
          Ast.If_eq { var; expect; then_; else_ = body_of else_ }
      | ( ( "yield" | "write" | "incr" | "check" | "atomic-incr" | "cas"
          | "sem-wait" | "sem-post" | "signal" | "broadcast" | "cond-wait"
          | "barrier" | "arr-set" | "arr-get" | "join" | "await" | "send"
          | "recv" | "wq-put" | "wq-take" | "if" ),
          _ ) ->
          wrong ()
      | _ -> bad off "unknown statement form %s" kw)
  | List (off, _) ->
      bad off "expected a statement form, got %s" (sexp_to_string s)

and body_of stmts = List.map stmt_of stmts

let thread_of = function
  | List (_, Atom (_, "thread") :: body) -> body_of body
  | s ->
      bad (offset_of s) "expected a (thread ...) form, got %s"
        (sexp_to_string s)

(* The bytes [String.trim] strips: a line of only these is blank. *)
let is_blank = function ' ' | '\012' | '\n' | '\r' | '\t' -> true | _ -> false

(* The first non-blank line must be the version header: a v2 file (or a
   file that is not a corpus program at all) is an error, not a guess. *)
let check_header src =
  let n = String.length src in
  let rec first_line i =
    if i >= n then None
    else
      let j = Option.value ~default:n (String.index_from_opt src i '\n') in
      let l = String.trim (String.sub src i (j - i)) in
      if l = "" then first_line (j + 1)
      else
        let start = ref i in
        while is_blank src.[!start] do incr start done;
        Some (!start, l)
  in
  match first_line 0 with
  | Some (_, l) when l = header -> ()
  | Some (off, l) -> bad off "expected header %S, got %S" header l
  | None -> bad 0 "empty input (expected header %S)" header

let parse src =
  match
    check_header src;
    List.map thread_of (parse_sexps (tokenize src))
  with
  | threads -> Ok { Ast.threads }
  | exception Bad (off, msg) -> Error (Printf.sprintf "offset %d: %s" off msg)
