(* Quickstart: the worked example of the paper (Figure 1).

   T0 creates three threads: T1 writes x then y, T2 writes z, and T3 asserts
   x = y. The assertion can only fail when T3 reads between T1's two writes —
   a schedule with one preemption (one delay), which bound-0 search provably
   cannot reach.

     dune exec examples/quickstart.exe *)

open Sct_core

let figure1 () =
  let x = Sct.Var.make ~name:"x" 0 in
  let y = Sct.Var.make ~name:"y" 0 in
  let z = Sct.Var.make ~name:"z" 0 in
  let t1 =
    Sct.spawn (fun () ->
        Sct.Var.write x 1;
        Sct.Var.write y 1)
  in
  let t2 = Sct.spawn (fun () -> Sct.Var.write z 1) in
  let t3 =
    Sct.spawn (fun () ->
        let vx = Sct.Var.read x in
        let vy = Sct.Var.read y in
        Sct.check (vx = vy) "assert x == y")
  in
  ignore (t1, t2, t3)

let () =
  (* Phase 1: find the racy locations (all of x, y, z here). *)
  let detection = Sct_race.Promotion.detect ~runs:10 figure1 in
  Printf.printf "racy locations: %s\n"
    (String.concat ", " detection.Sct_race.Promotion.racy);
  let promote = Sct_race.Promotion.promote detection in

  (* Phase 2: iterative delay bounding, one of the study's techniques. *)
  let idb =
    Sct_explore.Techniques.(
      run ~promote { default_options with limit = 10_000 } IDB figure1)
  in
  Format.printf "IDB: %a@." Sct_explore.Stats.pp idb;
  (match idb.Sct_explore.Stats.first_bug with
  | Some w ->
      Format.printf "bug found at delay bound %d: %a@."
        (Option.value ~default:(-1) idb.Sct_explore.Stats.bound)
        Outcome.pp_bug w.Sct_explore.Stats.w_bug;
      Format.printf "witness schedule (%d steps, pc=%d, dc=%d): %a@."
        (Schedule.length w.Sct_explore.Stats.w_schedule)
        w.Sct_explore.Stats.w_pc w.Sct_explore.Stats.w_dc Schedule.pp
        w.Sct_explore.Stats.w_schedule
  | None -> print_endline "no bug found (unexpected!)");

  (* For contrast: a delay bound of zero explores exactly one schedule (the
     deterministic round-robin one) and finds nothing. *)
  let level0 =
    Sct_explore.Dfs.explore ~promote ~bound:(Sct_explore.Dfs.Delay 0)
      ~limit:10_000 figure1
  in
  Printf.printf
    "delay bound 0: %d schedule(s), %d buggy — the bug needs one delay\n"
    level0.Sct_explore.Dfs.counted level0.Sct_explore.Dfs.buggy
