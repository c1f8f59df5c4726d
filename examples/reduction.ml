(* Partial-order reduction at work (the paper's §8 future work).

   Explores the same program with plain DFS, sleep sets, classic DPOR and
   their combination, printing how many schedules each needs to cover the
   behaviourally distinct interleavings — and shows that the bug survives
   every reduction.

     dune exec examples/reduction.exe *)

open Sct_core

(* A small pipeline: two independent producers fill disjoint cells, a
   combiner (incorrectly) snapshots both without locks. Most interleavings
   differ only by commuting independent writes — exactly what POR prunes. *)
let program () =
  let a = Sct.Var.make ~name:"cell_a" 0 in
  let b = Sct.Var.make ~name:"cell_b" 0 in
  let p1 =
    Sct.spawn (fun () ->
        for i = 1 to 3 do
          Sct.Var.write a i
        done)
  in
  let p2 =
    Sct.spawn (fun () ->
        for i = 1 to 3 do
          Sct.Var.write b i
        done)
  in
  let combiner =
    Sct.spawn (fun () ->
        let va = Sct.Var.read a in
        let vb = Sct.Var.read b in
        (* BUG: the snapshot is not atomic; a torn (3,0)/(0,3) pair is
           possible *)
        Sct.check (abs (va - vb) <= 2) "torn snapshot")
  in
  Sct.join p1;
  Sct.join p2;
  Sct.join combiner

let promote_all _ = true

let () =
  let dfs =
    Sct_explore.Dfs.explore ~promote:promote_all
      ~bound:Sct_explore.Dfs.Unbounded ~limit:1_000_000 program
  in
  Printf.printf "plain DFS : %6d schedules, %d buggy, complete=%b\n"
    dfs.Sct_explore.Dfs.counted dfs.Sct_explore.Dfs.buggy
    dfs.Sct_explore.Dfs.complete;
  List.iter
    (fun (name, mode) ->
      let s =
        Sct_explore.Por.explore ~promote:promote_all ~mode ~limit:1_000_000
          program
      in
      Printf.printf
        "%-10s: %6d schedules (+%d pruned), %d buggy, complete=%b%s\n" name
        s.Sct_explore.Stats.total s.Sct_explore.Stats.por_pruned
        s.Sct_explore.Stats.buggy s.Sct_explore.Stats.complete
        (match s.Sct_explore.Stats.to_first_bug with
        | Some i -> Printf.sprintf " (first bug at schedule %d)" i
        | None -> ""))
    [
      ("sleep sets", Sct_explore.Por.Sleep);
      ("dpor", Sct_explore.Por.Dpor);
      ("dpor+sleep", Sct_explore.Por.Dpor_sleep);
    ];
  print_newline ();
  print_endline
    "All modes find the torn snapshot; the reductions discard only\n\
     interleavings that differ by commuting independent operations.\n\
     The paper's conclusion names exactly this combination — bounding\n\
     plus partial-order reduction — as the open research direction."
