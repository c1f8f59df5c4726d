type t = {
  lock : Mutex.t;
  work : Condition.t;  (* signalled when the queue grows or the pool closes *)
  finished : Condition.t;  (* broadcast whenever any future completes *)
  queue : (bool -> unit) Queue.t;
      (* each task closes over its own future; [task true] runs it,
         [task false] cancels it *)
  mutable closed : bool;
  mutable domains : unit Domain.t array;
      (* the [jobs - 1] worker domains; the caller is the pool's other
         domain. With none, tasks run on the submitting domain at [submit]
         time, in the FIFO order a single worker would use, and the process
         stays single-domain. *)
}

type 'a outcome = Value of 'a | Error of exn * Printexc.raw_backtrace

exception Cancelled

(* Cancelled tasks never ran, so they have no backtrace of their own. *)
let no_backtrace = Printexc.get_callstack 0

type 'a future = {
  pool : t;
  mutable outcome : 'a outcome option;  (* [None] while pending or running *)
}

let size pool = Array.length pool.domains + 1
let default_jobs () = Domain.recommended_domain_count ()

let worker pool =
  let rec loop () =
    Mutex.lock pool.lock;
    while Queue.is_empty pool.queue && not pool.closed do
      Condition.wait pool.work pool.lock
    done;
    (* drain remaining tasks even when closed *)
    match Queue.take_opt pool.queue with
    | None ->
        Mutex.unlock pool.lock (* closed and empty: exit *)
    | Some task ->
        Mutex.unlock pool.lock;
        task true;
        loop ()
  in
  loop ()

let create ~jobs =
  let pool =
    {
      lock = Mutex.create ();
      work = Condition.create ();
      finished = Condition.create ();
      queue = Queue.create ();
      closed = false;
      domains = [||];
    }
  in
  if jobs > 1 then begin
    (* the OCaml runtime refuses [Unix.fork] in any process that ever
       spawned a second domain; the benchmark ledger reads this record
       (see prefix_exec.mli) *)
    Sct_explore.Prefix_exec.note_domains_spawned ();
    pool.domains <-
      Array.init (jobs - 1) (fun _ -> Domain.spawn (fun () -> worker pool))
  end;
  pool

let submit pool fn =
  let fut = { pool; outcome = None } in
  let task run =
    let outcome =
      if not run then Error (Cancelled, no_backtrace)
      else
        try Value (fn ()) with e -> Error (e, Printexc.get_raw_backtrace ())
    in
    Mutex.lock pool.lock;
    fut.outcome <- Some outcome;
    Condition.broadcast pool.finished;
    Mutex.unlock pool.lock
  in
  Mutex.lock pool.lock;
  if pool.closed then begin
    Mutex.unlock pool.lock;
    invalid_arg "Sct_parallel.Pool.submit: pool is shut down"
  end;
  if Array.length pool.domains = 0 then begin
    Mutex.unlock pool.lock;
    task true
  end
  else begin
    Queue.push task pool.queue;
    Condition.signal pool.work;
    Mutex.unlock pool.lock
  end;
  fut

(* With the lock held, run queued tasks on the calling domain, oldest
   first and outside the lock, until [stop ()] holds or the queue is
   empty. *)
let rec run_queued pool ~stop =
  if not (stop ()) then
    match Queue.take_opt pool.queue with
    | Some task ->
        Mutex.unlock pool.lock;
        task true;
        Mutex.lock pool.lock;
        run_queued pool ~stop
    | None -> ()

(* The caller works while it waits, and sleeps only when the queue is empty
   and its own task is still running on a worker. *)
let await fut =
  let pool = fut.pool in
  Mutex.lock pool.lock;
  let rec wait () =
    run_queued pool ~stop:(fun () -> Option.is_some fut.outcome);
    match fut.outcome with
    | Some o -> o
    | None ->
        Condition.wait pool.finished pool.lock;
        wait ()
  in
  let o = wait () in
  Mutex.unlock pool.lock;
  match o with
  | Value v -> v
  | Error (e, bt) -> Printexc.raise_with_backtrace e bt

let shutdown pool =
  Mutex.lock pool.lock;
  let was_closed = pool.closed in
  pool.closed <- true;
  Condition.broadcast pool.work;
  (* the caller drains the queue beside the workers *)
  run_queued pool ~stop:(fun () -> false);
  Mutex.unlock pool.lock;
  if not was_closed then Array.iter Domain.join pool.domains

(* Close the pool, complete the futures of the tasks that have not started
   with [Cancelled], and join the workers once they finish the tasks they
   are running. *)
let cancel pool =
  Mutex.lock pool.lock;
  let was_closed = pool.closed in
  pool.closed <- true;
  let pending = List.of_seq (Queue.to_seq pool.queue) in
  Queue.clear pool.queue;
  Condition.broadcast pool.work;
  Mutex.unlock pool.lock;
  List.iter (fun task -> task false) pending;
  if not was_closed then Array.iter Domain.join pool.domains

let with_pool ~jobs f =
  let pool = create ~jobs in
  match f pool with
  | v ->
      shutdown pool;
      v
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      cancel pool;
      Printexc.raise_with_backtrace e bt
