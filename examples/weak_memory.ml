(* Weak memory: exploring TSO store-buffer reorderings systematically.

   The study explores sequentially consistent outcomes only and notes that
   bugs depending on relaxed memory effects are missed (paper §5); its
   hardest benchmark (safestack) comes from the weak-memory world. This
   example runs the classic store-buffering litmus under both memory models
   and shows the outcome Dekker-style mutual exclusion relies on being
   impossible — and how it appears under TSO, and disappears again with a
   fence.

     dune exec examples/weak_memory.exe *)

open Sct_core

module Outcomes = Set.Make (struct
  type t = int * int

  let compare = compare
end)

let promote_all _ = true

let collect mk =
  let outcomes = ref Outcomes.empty in
  let program () =
    let r = mk () in
    outcomes := Outcomes.add r !outcomes
  in
  let s =
    Sct_explore.Por.explore ~promote:promote_all
      ~mode:Sct_explore.Por.Dpor_sleep ~limit:500_000 program
  in
  assert s.Sct_explore.Stats.complete;
  (!outcomes, s.Sct_explore.Stats.total)

let show (outcomes, n) =
  Printf.sprintf "{%s} (%d schedules explored)"
    (String.concat ", "
       (List.map
          (fun (a, b) -> Printf.sprintf "(%d,%d)" a b)
          (Outcomes.elements outcomes)))
    n

(* SB under sequential consistency. *)
let sb_sc () =
  let x = Sct.Var.make ~name:"x" 0 and y = Sct.Var.make ~name:"y" 0 in
  let r1 = ref (-1) and r2 = ref (-1) in
  let t1 =
    Sct.spawn (fun () ->
        Sct.Var.write x 1;
        r1 := Sct.Var.read y)
  in
  let t2 =
    Sct.spawn (fun () ->
        Sct.Var.write y 1;
        r2 := Sct.Var.read x)
  in
  Sct.join t1;
  Sct.join t2;
  (!r1, !r2)

(* The same program through TSO store buffers, optionally fenced. *)
let sb_tso ~fenced () =
  let ctx = Sct_tso.Tso.create () in
  let x = Sct_tso.Tso.Var.make ctx ~name:"x" 0 in
  let y = Sct_tso.Tso.Var.make ctx ~name:"y" 0 in
  let r1 = ref (-1) and r2 = ref (-1) in
  let _ =
    Sct_tso.Tso.thread ctx (fun () ->
        Sct_tso.Tso.Var.store x 1;
        if fenced then Sct_tso.Tso.fence ctx;
        r1 := Sct_tso.Tso.Var.load y)
  in
  let _ =
    Sct_tso.Tso.thread ctx (fun () ->
        Sct_tso.Tso.Var.store y 1;
        if fenced then Sct_tso.Tso.fence ctx;
        r2 := Sct_tso.Tso.Var.load x)
  in
  Sct_tso.Tso.finish ctx;
  (!r1, !r2)

let () =
  print_endline "store-buffering litmus: T1: x:=1; r1:=y   T2: y:=1; r2:=x";
  print_newline ();
  Printf.printf "sequential consistency : %s\n" (show (collect sb_sc));
  Printf.printf "TSO store buffers      : %s\n"
    (show (collect (sb_tso ~fenced:false)));
  Printf.printf "TSO + mfence           : %s\n"
    (show (collect (sb_tso ~fenced:true)));
  print_newline ();
  print_endline
    "Under SC the outcome (0,0) never appears: some store always precedes\n\
     both loads. With store buffers each thread can read the other's\n\
     variable before either buffered store drains, so (0,0) becomes\n\
     observable — this is why Dekker-style mutual exclusion needs fences\n\
     on x86. With mfence after the stores, the SC outcome set returns."
