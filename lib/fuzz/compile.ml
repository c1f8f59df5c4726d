open Sct_core

let n_vars = 2
let n_mutexes = 2
let arr_len = 2
let n_futures = 2
let n_chans = 2

(* Fuzz executions run only a handful of steps, so names are formatted once
   here rather than on every execution. *)
let var_names = Array.init n_vars (Printf.sprintf "fz_v%d")
let chan_names = Array.init n_chans (Printf.sprintf "fz_ch%d")

let program (p : Ast.program) () =
  let vars = Array.map (fun name -> Sct.Var.make ~name 0) var_names in
  let atomic = Sct.Atomic.make ~name:"fz_a" 0 in
  let mutexes = Array.init n_mutexes (fun _ -> Sct.Mutex.create ()) in
  let cond = Sct.Cond.create () in
  let sem = Sct.Sem.create 1 in
  let barrier = Sct.Barrier.create 2 in
  let arr = Sct.Arr.make ~name:"fz_arr" arr_len 0 in
  (* async environment: promise slots, capacity-1 bounded channels (one
     data location guarded by a slots/items semaphore pair each), and one
     work queue (items semaphore + mutex-guarded pending count + an
     unsynchronised completion counter, a deliberate race source) *)
  let futures = Array.make n_futures None in
  let future_tids = ref [] in
  let chan_data = Array.map (fun name -> Sct.Var.make ~name 0) chan_names in
  let chan_slots = Array.init n_chans (fun _ -> Sct.Sem.create 1) in
  let chan_items = Array.init n_chans (fun _ -> Sct.Sem.create 0) in
  let wq_items = Sct.Sem.create 0 in
  let wq_mutex = Sct.Mutex.create () in
  let wq_pending = Sct.Var.make ~name:"fz_wq_n" 0 in
  let wq_done = Sct.Var.make ~name:"fz_wq_done" 0 in
  let n_threads = List.length p.Ast.threads in
  let tids = Array.make (max 1 n_threads) (-1) in
  let var i = vars.(abs i mod n_vars) in
  let mutex i = mutexes.(abs i mod n_mutexes) in
  let chan i = abs i mod n_chans in
  let slot i = abs i mod n_futures in
  let rec run_stmt ~me s =
    match (s : Ast.stmt) with
    | Yield -> Sct.yield ()
    | Write { var = v; value } -> Sct.Var.write (var v) value
    | Incr { var = v } ->
        let x = var v in
        Sct.Var.write x (Sct.Var.read x + 1)
    | Check_eq { var = v; expect } ->
        if Sct.Var.read (var v) <> expect then
          Sct.fail (Printf.sprintf "fz_v%d = %d" (abs v mod n_vars) expect)
    | Lock { m; body } ->
        Sct.Mutex.lock (mutex m);
        run_body ~me body;
        Sct.Mutex.unlock (mutex m)
    | Try_lock { m; body } ->
        if Sct.Mutex.try_lock (mutex m) then begin
          run_body ~me body;
          Sct.Mutex.unlock (mutex m)
        end
    | Atomic_incr -> Sct.Atomic.incr atomic
    | Atomic_cas { expect; repl } ->
        ignore (Sct.Atomic.compare_and_set atomic expect repl : bool)
    | Sem_wait -> Sct.Sem.wait sem
    | Sem_post -> Sct.Sem.post sem
    | Cond_signal -> Sct.Cond.signal cond
    | Cond_broadcast -> Sct.Cond.broadcast cond
    | Cond_wait { m } ->
        Sct.Mutex.lock (mutex m);
        Sct.Cond.wait cond (mutex m);
        Sct.Mutex.unlock (mutex m)
    | Barrier_wait -> Sct.Barrier.wait barrier
    | Arr_set { index; value } -> Sct.Arr.set arr index value
    | Arr_get { index } -> ignore (Sct.Arr.get arr index : int)
    | Loop { times; body } ->
        for _ = 1 to times do
          run_body ~me body
        done
    | If_eq { var = v; expect; then_; else_ } ->
        if Sct.Var.read (var v) = expect then run_body ~me then_
        else run_body ~me else_
    | Join { thread } ->
        (* only earlier-spawned threads have a deterministically published
           tid; anything else degenerates to a pure scheduling point *)
        if thread >= 0 && thread < me then Sct.join tids.(thread)
        else Sct.yield ()
    | Future { slot = s; body } ->
        let tid = Sct.spawn (fun () -> run_body ~me body) in
        futures.(slot s) <- Some tid;
        future_tids := tid :: !future_tids
    | Await { slot = s } -> (
        (* an empty slot degenerates to a pure scheduling point, keeping
           shrunk programs well-formed; joining an already-finished future
           is a no-op wait *)
        match futures.(slot s) with
        | Some tid -> Sct.join tid
        | None -> Sct.yield ())
    | Chan_send { ch = c; value } ->
        Sct.Sem.wait chan_slots.(chan c);
        Sct.Var.write chan_data.(chan c) value;
        Sct.Sem.post chan_items.(chan c)
    | Chan_recv { ch = c } ->
        Sct.Sem.wait chan_items.(chan c);
        ignore (Sct.Var.read chan_data.(chan c) : int);
        Sct.Sem.post chan_slots.(chan c)
    | Wq_put { task } ->
        Sct.Mutex.lock wq_mutex;
        Sct.Var.write wq_pending (Sct.Var.read wq_pending + abs task + 1);
        Sct.Mutex.unlock wq_mutex;
        Sct.Sem.post wq_items
    | Wq_take ->
        Sct.Sem.wait wq_items;
        Sct.Mutex.lock wq_mutex;
        Sct.Var.write wq_pending (Sct.Var.read wq_pending - 1);
        Sct.Mutex.unlock wq_mutex;
        Sct.Var.write wq_done (Sct.Var.read wq_done + 1)
  and run_body ~me ss = List.iter (run_stmt ~me) ss in
  List.iteri
    (fun i body -> tids.(i) <- Sct.spawn (fun () -> run_body ~me:i body))
    p.Ast.threads;
  for i = 0 to n_threads - 1 do
    Sct.join tids.(i)
  done;
  (* futures spawned by finished threads may still be running (or blocked):
     the main thread collects every one, so no execution leaks a thread *)
  List.iter Sct.join (List.rev !future_tids)
