open Sct_core

(* [Runtime.exec] reports a deadlock instead of scheduling an empty
   enabled set, so the zero-delay pick always exists. *)
let round_robin (ctx : Runtime.ctx) =
  match
    Delay.deterministic_choice ~n:ctx.c_n_threads ~last:ctx.c_last
      ~enabled:ctx.c_enabled
  with
  | Some t -> t
  | None -> invalid_arg "Sct_explore.Replay.round_robin: no enabled thread"

let round_robin_run ?(promote = fun _ -> false) ?(max_steps = 100_000)
    program =
  Runtime.exec ~promote ~max_steps ~record_decisions:false
    ~scheduler:round_robin program

exception Infeasible

let replay ?(promote = fun _ -> false) ?(max_steps = 100_000)
    ?(strict = true) ~schedule program =
  let remaining = ref (Schedule.to_list schedule) in
  let scheduler (ctx : Runtime.ctx) =
    match !remaining with
    | [] -> round_robin ctx
    | t :: rest ->
        if List.exists (Tid.equal t) ctx.c_enabled then begin
          remaining := rest;
          t
        end
        else if strict then raise Infeasible
        else begin
          remaining := rest;
          round_robin ctx
        end
  in
  match
    Runtime.exec ~promote ~max_steps ~record_decisions:false ~scheduler
      program
  with
  | res -> Some res
  | exception Infeasible -> None

(* The bytes [String.trim] strips, so that a token's reported offset skips
   exactly the whitespace its trimming removed. *)
let is_trimmed = function
  | ' ' | '\012' | '\n' | '\r' | '\t' -> true
  | _ -> false

(* Thread ids are plain decimal: [int_of_string] alone would also accept
   [0x1], [0b11], [0o7], [+2] and [1_0]. *)
let is_decimal tok = String.for_all (fun c -> c >= '0' && c <= '9') tok

let parse s =
  let n = String.length s in
  (* split on commas, remembering where each token starts so errors can
     point into the input *)
  let rec split i acc =
    match String.index_from_opt s i ',' with
    | Some j -> split (j + 1) ((i, String.sub s i (j - i)) :: acc)
    | None -> List.rev ((i, String.sub s i (n - i)) :: acc)
  in
  let tokens = split 0 [] in
  if List.for_all (fun (_, raw) -> String.trim raw = "") tokens then
    (* a blank input (or the empty string) is the empty schedule *)
    Schedule.empty
  else
    tokens
    |> List.map (fun (start, raw) ->
           (* report the position of the token itself, not of the
              surrounding whitespace *)
           let lead = ref 0 in
           while !lead < String.length raw && is_trimmed raw.[!lead] do
             incr lead
           done;
           let tok = String.trim raw in
           let pos = start + !lead in
           if tok = "" then
             failwith
               (Printf.sprintf "Replay.parse: empty thread id at offset %d"
                  pos)
           else
             (* [None] past [max_int] too: the overflow error *)
             match if is_decimal tok then int_of_string_opt tok else None with
             | Some t -> t
             | None ->
                 failwith
                   (Printf.sprintf
                      "Replay.parse: bad thread id %S at offset %d" tok pos))
    |> Schedule.of_list
