(* Hot-path engine coverage.

   1. The incremental enabled-set law: at every scheduling decision, the
      engine's incrementally maintained enabled set (and its fingerprint)
      must equal a naive recompute-from-scratch reference
      ([Runtime.recomputed_enabled]). The program family stresses every
      enabledness source: mutexes (lock, try_lock), condition variables,
      semaphores, barriers, rwlocks, joins — including deadlocking
      programs, so the n_enabled = 0 path is exercised too.

   2. A golden determinism check: the table-3 rows of a fixed benchmark
      subset at --limit 200 must be byte-identical to the committed golden
      file, which was generated before the hot-path overhaul. Regenerate
      with SCT_GOLDEN_UPDATE=/abs/path/to/test/table3_golden.txt. *)

open Sct_core

type hop =
  | H_yield
  | H_write of int
  | H_locked of int
  | H_trylock
  | H_sem_wait
  | H_sem_post
  | H_signal
  | H_broadcast
  | H_cond_wait
  | H_barrier
  | H_rd
  | H_wr

type hprogram = { threads : hop list list }

let hop_gen =
  QCheck2.Gen.(
    frequency
      [
        (3, return H_yield);
        (3, map (fun v -> H_write (abs v mod 2)) int);
        (3, map (fun v -> H_locked (abs v mod 2)) int);
        (2, return H_trylock);
        (2, return H_sem_wait);
        (2, return H_sem_post);
        (2, return H_signal);
        (1, return H_broadcast);
        (2, return H_cond_wait);
        (2, return H_barrier);
        (2, return H_rd);
        (2, return H_wr);
      ])

let hprogram_gen =
  QCheck2.Gen.(
    let* n_threads = int_range 1 10 in
    let* threads = list_repeat n_threads (list_size (int_range 1 5) hop_gen) in
    return { threads })

let print_hprogram p =
  String.concat " | "
    (List.map
       (fun ops ->
         String.concat ";"
           (List.map
              (function
                | H_yield -> "y"
                | H_write v -> Printf.sprintf "w%d" v
                | H_locked v -> Printf.sprintf "lw%d" v
                | H_trylock -> "tl"
                | H_sem_wait -> "sw"
                | H_sem_post -> "sp"
                | H_signal -> "cs"
                | H_broadcast -> "cb"
                | H_cond_wait -> "cw"
                | H_barrier -> "b"
                | H_rd -> "rd"
                | H_wr -> "wr")
              ops))
       p.threads)

let build { threads } () =
  let x = Sct.Var.make ~name:"hx" 0 in
  let m = Sct.Mutex.create () in
  let s = Sct.Sem.create 1 in
  let c = Sct.Cond.create () in
  let b = Sct.Barrier.create 2 in
  let l = Sct.Rwlock.create () in
  let bump () = Sct.Var.write x (Sct.Var.read x + 1) in
  let run_op = function
    | H_yield -> Sct.yield ()
    | H_write _ -> bump ()
    | H_locked _ ->
        Sct.Mutex.lock m;
        bump ();
        Sct.Mutex.unlock m
    | H_trylock ->
        if Sct.Mutex.try_lock m then begin
          bump ();
          Sct.Mutex.unlock m
        end
    | H_sem_wait -> Sct.Sem.wait s
    | H_sem_post -> Sct.Sem.post s
    | H_signal -> Sct.Cond.signal c
    | H_broadcast -> Sct.Cond.broadcast c
    | H_cond_wait ->
        Sct.Mutex.lock m;
        Sct.Cond.wait c m;
        Sct.Mutex.unlock m
    | H_barrier -> Sct.Barrier.wait b
    | H_rd ->
        Sct.Rwlock.rd_lock l;
        Sct.Rwlock.unlock l
    | H_wr ->
        Sct.Rwlock.wr_lock l;
        Sct.Rwlock.unlock l
  in
  let ts =
    List.map (fun ops -> Sct.spawn (fun () -> List.iter run_op ops)) threads
  in
  List.iter Sct.join ts

let tids l = String.concat "," (List.map string_of_int l)

(* A random scheduler that cross-checks the incremental enabled set (its
   fingerprint and its size [c_n_enabled]) against the from-scratch
   reference at every decision, and [Runtime.uniform_pick] against the
   array-indexing pick it replaced.
   The enabled list is reused across decisions until a bit flips, so the
   set check also pins the reuse's invalidation. It also checks the
   bound-cost kernel: every enabled thread's preemption and delay cost must
   equal the reference definitions on the recomputed set. *)
let checking_scheduler rng (ctx : Runtime.ctx) =
  let naive = Runtime.recomputed_enabled ctx.c_rt in
  if not (List.equal Tid.equal naive ctx.c_enabled) then
    failwith
      (Printf.sprintf
         "enabled-set divergence at step %d: incremental=[%s] naive=[%s]"
         ctx.c_step (tids ctx.c_enabled) (tids naive));
  if Runtime.fingerprint ctx.c_enabled <> ctx.c_enabled_fp then
    failwith
      (Printf.sprintf "fingerprint divergence at step %d on [%s]" ctx.c_step
         (tids ctx.c_enabled));
  if ctx.c_n_enabled <> List.length ctx.c_enabled then
    failwith
      (Printf.sprintf "c_n_enabled = %d at step %d on [%s]" ctx.c_n_enabled
         ctx.c_step (tids ctx.c_enabled));
  (* the one uniform pick makes the draw the random schedulers always made:
     [int rng 1] on a single thread, else an index into the array *)
  let copy = Random.State.copy rng in
  let reference =
    match ctx.c_enabled with
    | [ t ] ->
        ignore (Random.State.int copy 1 : int);
        t
    | enabled ->
        let enabled = Array.of_list enabled in
        enabled.(Random.State.int copy (Array.length enabled))
  in
  let ours = Random.State.copy rng in
  if
    Runtime.uniform_pick ours ctx <> reference
    || Random.State.bits ours <> Random.State.bits copy
  then failwith (Printf.sprintf "uniform_pick diverges at step %d" ctx.c_step);
  let last = ctx.c_last and n = ctx.c_n_threads in
  List.iter
    (fun t ->
      let check what kernel reference =
        if kernel <> reference then
          failwith
            (Printf.sprintf
               "%s cost of T%d at step %d (last %s, enabled [%s]): kernel %d, \
                reference %d"
               what t ctx.c_step
               (match last with Some l -> string_of_int l | None -> "-")
               (tids naive) kernel reference)
      in
      check "preemption"
        (Sct_explore.Bound_cost.cost Sct_explore.Bound_cost.Preemptions ctx t)
        (Preemption.delta ~last ~enabled:naive t);
      check "delay"
        (Sct_explore.Bound_cost.cost Sct_explore.Bound_cost.Delays ctx t)
        (Delay.delays ~n ~last ~enabled:naive t))
    naive;
  List.nth ctx.c_enabled (Random.State.int rng (List.length ctx.c_enabled))

let prop_incremental_matches_naive =
  QCheck2.Test.make
    ~name:"incremental enabled set == recompute-from-scratch, every step"
    ~count:80 ~print:print_hprogram hprogram_gen (fun hp ->
      let program = build hp in
      for seed = 0 to 5 do
        let rng = Random.State.make [| 0xE0; seed |] in
        let r =
          Runtime.exec
            ~promote:(fun _ -> true)
            ~max_steps:1_000 ~record_decisions:false
            ~scheduler:(checking_scheduler rng) program
        in
        (* any terminal outcome is fine; the law lives in the scheduler *)
        ignore (r.Runtime.r_outcome : Outcome.t)
      done;
      true)

(* DFS over the same family: exercises the fingerprint-based prefix replay
   (frames are replayed on every backtracked execution) and the reused
   frame storage. A deterministic program must never trip the
   nondeterminism check. *)
let prop_dfs_replay_consistent =
  QCheck2.Test.make ~name:"DFS fingerprint replay accepts deterministic runs"
    ~count:40 ~print:print_hprogram hprogram_gen (fun hp ->
      let program = build hp in
      let r =
        Sct_explore.Dfs.explore
          ~promote:(fun _ -> true)
          ~max_steps:1_000 ~bound:Sct_explore.Dfs.Unbounded ~limit:300 program
      in
      r.Sct_explore.Dfs.executions > 0)

(* --- golden table-3 rows ------------------------------------------------ *)

let golden_benchmarks =
  [
    "CS.lazy01_bad";
    "CS.deadlock01_bad";
    "CS.account_bad";
    "CS.reorder_3_bad";
    "CS.twostage_bad";
    "CS.wronglock_bad";
  ]

let golden_limit = 200

(* The rows are the expensive part (six benchmarks x nine techniques at
   --limit 200); both golden tables render from the same single run. The
   paper's five are joined by the four bounding-axis techniques, so the
   golden also pins their byte-determinism (and the conditional Table 3
   columns they trigger). *)
let golden_rows =
  lazy
    (let open Sct_explore in
     let o =
       { Techniques.default_options with Techniques.limit = golden_limit }
     in
     let techniques =
       Techniques.all_paper
       @ [ Techniques.Fair; Techniques.Length; Techniques.IVB; Techniques.ITB ]
     in
     let benches =
       List.map
         (fun name ->
           match Sctbench.Registry.by_name name with
           | Some b -> b
           | None -> Alcotest.fail ("missing benchmark " ^ name))
         golden_benchmarks
     in
     Sct_report.Run_data.run_all ~techniques o benches)

let render print =
  let buf = Buffer.create 4096 in
  let fmt = Format.formatter_of_buffer buf in
  print ~out:fmt ~limit:golden_limit (Lazy.force golden_rows);
  Format.pp_print_flush fmt ();
  Buffer.contents buf

let produce_table3 () =
  render (fun ~out -> Sct_report.Table3.print ~out)

let produce_table2 () =
  render (fun ~out -> Sct_report.Table2.print ~out)

(* [update_env] regenerates the golden file instead of checking it;
   otherwise [file] is looked up next to the test executable (dune copies
   deps there) with fallbacks for [dune exec] from the repo root. *)
let check_golden ~update_env ~file ~what produced =
  match Sys.getenv_opt update_env with
  | Some path ->
      Out_channel.with_open_bin path (fun oc -> output_string oc produced)
  | None ->
      let golden =
        List.find_opt Sys.file_exists
          [
            Filename.concat (Filename.dirname Sys.executable_name) file;
            file;
            Filename.concat "test" file;
          ]
      in
      let golden =
        match golden with
        | Some p -> p
        | None -> Alcotest.fail (file ^ " not found")
      in
      let expected = In_channel.with_open_bin golden In_channel.input_all in
      Alcotest.(check string) (what ^ " byte-identical to golden") expected
        produced

let test_golden_table3 () =
  check_golden ~update_env:"SCT_GOLDEN_UPDATE" ~file:"table3_golden.txt"
    ~what:"table3 rows" (produce_table3 ())

let test_golden_table2 () =
  check_golden ~update_env:"SCT_GOLDEN_UPDATE_TABLE2"
    ~file:"table2_golden.txt" ~what:"table2 summary" (produce_table2 ())

let suites =
  [
    ( "engine-hot",
      [
        QCheck_alcotest.to_alcotest prop_incremental_matches_naive;
        QCheck_alcotest.to_alcotest prop_dfs_replay_consistent;
      ] );
    ( "golden-table3",
      [ Alcotest.test_case "rows match pre-overhaul golden" `Slow
          test_golden_table3 ] );
    ( "golden-table2",
      [ Alcotest.test_case "summary matches committed golden" `Slow
          test_golden_table2 ] );
  ]
