type t = {
  lock : Mutex.t;
  work : Condition.t;  (* signalled when the queue grows or the pool closes *)
  finished : Condition.t;  (* broadcast whenever any future completes *)
  queue : (unit -> unit) Queue.t;  (* each task closes over its own future *)
  mutable closed : bool;
  mutable domains : unit Domain.t array;
  inline : bool;
      (* a one-job pool spawns no worker domain at all: tasks run on the
         submitting domain at [submit] time. Task order is the FIFO order a
         single worker would use, and — crucially — the process stays
         single-domain, so {!Sct_explore.Prefix_exec.fork_available}
         remains true and sequential runs keep the fork server. *)
}

type 'a outcome = Value of 'a | Error of exn * Printexc.raw_backtrace

type 'a future = {
  pool : t;
  mutable outcome : 'a outcome option;  (* [None] while pending or running *)
}

let size pool = if pool.inline then 1 else Array.length pool.domains
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
        task ();
        loop ()
  in
  loop ()

let create ~jobs =
  let jobs = max 1 jobs in
  let pool =
    {
      lock = Mutex.create ();
      work = Condition.create ();
      finished = Condition.create ();
      queue = Queue.create ();
      closed = false;
      domains = [||];
      inline = jobs = 1;
    }
  in
  if not pool.inline then begin
    (* the OCaml runtime refuses [Unix.fork] in any process that ever
       spawned a second domain: switch the prefix-batch executor to its
       portable fallback for the rest of the process *)
    Sct_explore.Prefix_exec.note_domains_spawned ();
    pool.domains <-
      Array.init jobs (fun _ -> Domain.spawn (fun () -> worker pool))
  end;
  pool

let submit pool fn =
  let fut = { pool; outcome = None } in
  let task () =
    let outcome =
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
  if pool.inline then begin
    Mutex.unlock pool.lock;
    task ()
  end
  else begin
    Queue.push task pool.queue;
    Condition.signal pool.work;
    Mutex.unlock pool.lock
  end;
  fut

let await fut =
  let pool = fut.pool in
  Mutex.lock pool.lock;
  let rec wait () =
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
  Mutex.unlock pool.lock;
  if (not was_closed) && not pool.inline then
    Array.iter Domain.join pool.domains

let with_pool ~jobs f =
  let pool = create ~jobs in
  match f pool with
  | v ->
      shutdown pool;
      v
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      shutdown pool;
      Printexc.raise_with_backtrace e bt
