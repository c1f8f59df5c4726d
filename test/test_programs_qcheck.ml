(* Property tests over randomly generated (but deterministic) concurrent
   programs: the explorers must agree with each other and with the schedule
   algebra on every program in the family.

   A generated program is a set of threads, each a straight-line sequence of
   operations drawn from: yield, a write to one of two shared variables, or
   a lock/unlock-bracketed write. Programs of this family always terminate
   and are deterministic, so every explorer invariant must hold. *)

open Sct_core

type gen_op = Yield | Write of int | Locked_write of int

type gen_program = { threads : gen_op list list }

let gen_op_gen =
  QCheck2.Gen.(
    oneof
      [
        return Yield;
        map (fun v -> Write (abs v mod 2)) int;
        map (fun v -> Locked_write (abs v mod 2)) int;
      ])

let gen_program_gen =
  QCheck2.Gen.(
    let* n_threads = int_range 1 3 in
    let* threads =
      list_repeat n_threads (list_size (int_range 1 4) gen_op_gen)
    in
    return { threads })

let print_program p =
  String.concat " | "
    (List.map
       (fun ops ->
         String.concat ";"
           (List.map
              (function
                | Yield -> "y"
                | Write v -> Printf.sprintf "w%d" v
                | Locked_write v -> Printf.sprintf "lw%d" v)
              ops))
       p.threads)

let build { threads } () =
  let x = Sct.Var.make ~name:"qx" 0 in
  let y = Sct.Var.make ~name:"qy" 0 in
  let m = Sct.Mutex.create () in
  let run_op = function
    | Yield -> Sct.yield ()
    | Write 0 -> Sct.Var.write x (Sct.Var.read x + 1)
    | Write _ -> Sct.Var.write y (Sct.Var.read y + 1)
    | Locked_write v ->
        Sct.Mutex.lock m;
        if v = 0 then Sct.Var.write x (Sct.Var.read x + 1)
        else Sct.Var.write y (Sct.Var.read y + 1);
        Sct.Mutex.unlock m
  in
  let ts =
    List.map (fun ops -> Sct.spawn (fun () -> List.iter run_op ops)) threads
  in
  List.iter Sct.join ts

let promote_all _ = true
let cap = 30_000

let dfs ?count_exact ?(bound = Sct_explore.Dfs.Unbounded) program =
  Sct_explore.Dfs.explore ~promote:promote_all ?count_exact ~bound ~limit:cap
    program

(* Exact preemption levels partition the space; same for delay levels. *)
let prop_levels_partition =
  QCheck2.Test.make ~name:"bound levels partition the schedule space"
    ~count:40 ~print:print_program gen_program_gen (fun gp ->
      let program = build gp in
      let all = dfs program in
      QCheck2.assume all.Sct_explore.Dfs.complete;
      let sum_levels mk =
        let rec go c acc =
          if c > 40 then acc
          else
            let r = dfs ~bound:(mk c) ~count_exact:c program in
            let acc = acc + r.Sct_explore.Dfs.counted in
            if r.Sct_explore.Dfs.pruned then go (c + 1) acc else acc
        in
        go 0 0
      in
      sum_levels (fun c -> Sct_explore.Dfs.Preemption c)
      = all.Sct_explore.Dfs.counted
      && sum_levels (fun c -> Sct_explore.Dfs.Delay c)
         = all.Sct_explore.Dfs.counted)

(* Delay-bounded spaces are subsets of preemption-bounded spaces, level by
   level (paper §2). *)
let prop_delay_subset =
  QCheck2.Test.make ~name:"DB(c) is a subset of PB(c) on random programs"
    ~count:40 ~print:print_program gen_program_gen (fun gp ->
      let program = build gp in
      List.for_all
        (fun c ->
          let d = dfs ~bound:(Sct_explore.Dfs.Delay c) program in
          let p = dfs ~bound:(Sct_explore.Dfs.Preemption c) program in
          d.Sct_explore.Dfs.counted <= p.Sct_explore.Dfs.counted)
        [ 0; 1; 2 ])

(* There is exactly one zero-delay schedule (the deterministic scheduler's),
   while zero-preemption schedules may be many. *)
let prop_single_rr_schedule =
  QCheck2.Test.make ~name:"exactly one zero-delay schedule" ~count:40
    ~print:print_program gen_program_gen (fun gp ->
      let r = dfs ~bound:(Sct_explore.Dfs.Delay 0) (build gp) in
      r.Sct_explore.Dfs.counted = 1)

(* No program of this family has a bug: no explorer may report one. *)
let prop_no_false_positives =
  QCheck2.Test.make ~name:"no false positives on correct programs" ~count:40
    ~print:print_program gen_program_gen (fun gp ->
      let program = build gp in
      let d = dfs program in
      let r =
        Sct_explore.Seeded.explore ~promote:promote_all ~seed:11 ~runs:50
          Sct_explore.Seeded.rand program
      in
      d.Sct_explore.Dfs.buggy = 0 && r.Sct_explore.Stats.buggy = 0)

(* Rand, PCT and the deterministic scheduler all stay within the same
   schedule universe: their witness pc/dc statistics are consistent
   (dc >= pc on every run). *)
let prop_pc_le_dc_on_runs =
  QCheck2.Test.make ~name:"pc <= dc on random executions" ~count:40
    ~print:print_program gen_program_gen (fun gp ->
      let program = build gp in
      let ok = ref true in
      for seed = 0 to 4 do
        let rng = Random.State.make [| seed |] in
        let scheduler (ctx : Runtime.ctx) =
          List.nth ctx.c_enabled
            (Random.State.int rng (List.length ctx.c_enabled))
        in
        let r = Runtime.exec ~promote:promote_all ~scheduler program in
        if r.Runtime.r_pc > r.Runtime.r_dc then ok := false
      done;
      !ok)

let suites =
  [
    ( "qcheck-programs",
      [
        QCheck_alcotest.to_alcotest prop_levels_partition;
        QCheck_alcotest.to_alcotest prop_delay_subset;
        QCheck_alcotest.to_alcotest prop_single_rr_schedule;
        QCheck_alcotest.to_alcotest prop_no_false_positives;
        QCheck_alcotest.to_alcotest prop_pc_le_dc_on_runs;
      ] );
  ]
