open Sct_core

type result = { racy : string list; races : Detector.race list; runs : int }

(* One batch of seeded random executions with the given promotion set. *)
let detect_batch ~runs ~seed ~max_steps ~promote d program =
  for i = 0 to runs - 1 do
    Detector.reset_execution d;
    let rng = Random.State.make [| seed; i |] in
    let result =
      Runtime.exec ~promote ~listener:(Detector.listener d) ~max_steps
        ~record_decisions:false ~scheduler:(Runtime.uniform_pick rng) program
    in
    ignore result.Runtime.r_outcome
  done

(* Iterative detection: racy locations found in one round become visible
   operations in the next, refining the interleavings the detector can
   observe (threads are otherwise atomic between visible operations, unlike
   the paper's binary-level instrumentation where every racy instruction is
   individually interruptible by the OS scheduler). A fixpoint is reached in
   a handful of rounds on all of SCTBench. *)
let detect ?(runs = 10) ?(seed = 0) ?(max_steps = 100_000) ?(max_rounds = 4)
    program =
  let d = Detector.create () in
  let racy = ref [] in
  let total_runs = ref 0 in
  let continue_ = ref true in
  let round = ref 0 in
  while !continue_ && !round < max_rounds do
    let known = !racy in
    let promote name = List.mem name known in
    detect_batch ~runs ~seed:(seed + (1000 * !round)) ~max_steps ~promote d
      program;
    total_runs := !total_runs + runs;
    let now = Detector.racy_locations d in
    if List.length now = List.length known then continue_ := false
    else racy := now;
    incr round
  done;
  { racy = Detector.racy_locations d; races = Detector.races d; runs = !total_runs }

let promote r name = List.mem name r.racy
