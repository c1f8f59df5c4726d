type mutex_state = { mutable holder : Tid.t option; mutable destroyed : bool }
type cond_state = { waiters : (Tid.t * int) Queue.t }
type sem_state = { mutable count : int }

type barrier_state = {
  size : int;
  mutable waiting : Tid.t list;
  mutable n_waiting : int;
}

type rw_state = {
  mutable readers : Tid.t list;
  mutable writer : Tid.t option;
}

type obj =
  | O_mutex of mutex_state
  | O_cond of cond_state
  | O_sem of sem_state
  | O_barrier of barrier_state
  | O_rw of rw_state
  | O_location of { name : string }

type _ Effect.t +=
  | Visible : Op.t -> unit Effect.t
  | Spawn_eff : (unit -> unit) -> Tid.t Effect.t

(* Raised into live continuations when tearing an execution down, so fibres
   unwind (running their exception handlers) without being recorded. *)
exception Aborted

(* Raised by a scheduler to abandon the current execution: every enabled
   continuation was filtered out by an execution-level bound (fair or
   length bounding). [exec] tears the execution down normally and returns
   a [Step_limit] result for the truncated prefix. *)
exception Cut

type status =
  | Run_op of Op.t * (unit, unit) Effect.Deep.continuation
  | Run_spawn of (unit -> unit) * (Tid.t, unit) Effect.Deep.continuation
  | Running
      (* on its own stack at the perform site of [t_op], taking the next
         decision there (see [visible]) *)
  | Blocked of (unit, unit) Effect.Deep.continuation
      (* in a condition variable's wait queue or at a barrier *)
  | Finished

(* Per-thread cached scheduling state. [t_enabled]/[t_live] mirror what a
   from-scratch evaluation of the thread would say; they are re-derived only
   when the thread is marked dirty (its own status changed, or an object its
   pending operation blocks on changed state). [t_singleton] is the
   preallocated one-element enabled list used on the |enabled| = 1 fast
   path, so common run-to-block stretches allocate nothing per step. *)
type thread = {
  tid : Tid.t;
  mutable status : status;
  mutable t_op : Op.t;  (* the pending operation while [Running] *)
  mutable t_kept : int;  (* decisions of the loop that kept it running *)
  t_singleton : Tid.t list;
  mutable t_enabled : bool;
  mutable t_dirty : bool;
  mutable t_live : bool;
  mutable t_joiners : Tid.t list;
}

type decision = {
  d_enabled : Tid.t list;
  d_chosen : Tid.t;
  d_op : Op.t;
  d_n_threads : int;
}

type t = {
  mutable threads : thread option array;
  mutable count : int;  (* threads created *)
  mutable objects : obj array;  (* first [n_objects] slots are live *)
  mutable obj_deps : Tid.t list array;
      (* threads whose pending op's enabledness depends on the object;
         cleared (and the threads marked dirty) whenever it changes state *)
  mutable n_objects : int;
  promote : string -> bool;
  listener : (Event.t -> unit) option;
  max_steps : int;
  record_decisions : bool;
  mutable sched_buf : int array;  (* schedule so far; [steps] entries *)
  mutable decisions_rev : decision list;
  mutable steps : int;
  mutable outcome : Outcome.t option;
  mutable last : Tid.t option;
  mutable pc : int;
  mutable dc : int;
  mutable max_enabled : int;
  mutable multi_points : int;
  mutable running : Tid.t;
  mutable teardown : bool;
  mutable try_lock_result : bool;
  mutable n_live : int;  (* unfinished threads *)
  mutable n_enabled : int;  (* threads with [t_enabled] *)
  mutable enabled_fp : int;  (* xor fingerprint of the enabled set *)
  mutable enabled_cache : Tid.t list;
      (* the enabled set as last built, ascending; [[]] once a [t_enabled]
         bit has flipped since (a built list is never empty) *)
  mutable dirty : int array;  (* stack of tids awaiting re-evaluation *)
  mutable n_dirty : int;
  (* One effect handler is shared by every fibre of the execution (the
     suspending thread is always [running], execution being serialised);
     the two [eff_*] cells carry the effect payload into the preallocated
     handler closures so that suspending allocates no closure. *)
  mutable handler : (unit, unit) Effect.Deep.handler;
  mutable eff_op : Op.t;
  mutable eff_spawn : unit -> unit;
  scheduler : ctx -> Tid.t;
  mutable ctx : ctx;  (* the one context handed to [scheduler] *)
  mutable in_step : bool;
      (* a fibre resumed for a scheduled step is running: its next visible
         operation may take the next decision on its own stack *)
  mutable next : int;
      (* the decision a perform site took and the loop is to commit: a
         thread id, [terminal], or [undecided] when it took none *)
  mutable kept : (exn * Printexc.raw_backtrace) option;
      (* what the scheduler or a listener raised on a fibre's stack, for
         [exec] to re-raise *)
}

and ctx = {
  mutable c_step : int;
  mutable c_last : Tid.t option;
  mutable c_enabled : Tid.t list;
  mutable c_n_enabled : int;
  mutable c_enabled_fp : int;
  mutable c_n_threads : int;
  c_rt : t;
}

type scheduler = ctx -> Tid.t

let rec nth_enabled l i =
  match l with
  | t :: l -> if i = 0 then t else nth_enabled l (i - 1)
  | [] -> invalid_arg "Sct_core.Runtime.uniform_pick: c_n_enabled"

(* A single enabled thread is the common case on small programs; drawing
   [int rng 1] there, with no walk, keeps the ledger's fuzz workload 5 %
   faster than a draw over [c_n_enabled] and a walk. *)
let uniform_pick rng ctx =
  match ctx.c_enabled with
  | [ t ] ->
      ignore (Random.State.int rng 1 : int);
      t
  | l -> nth_enabled l (Random.State.int rng ctx.c_n_enabled)

type result = {
  r_outcome : Outcome.t;
  r_schedule : Schedule.t;
  r_decisions : decision list;
  r_pc : int;
  r_dc : int;
  r_n_threads : int;
  r_max_enabled : int;
  r_multi_points : int;
  r_steps : int;
}

let self rt = rt.running
let n_threads rt = rt.count

let thread rt tid =
  match rt.threads.(tid) with
  | Some th -> th
  | None -> invalid_arg "Sct_core.Runtime: unknown thread"

let thread_finished rt tid =
  match (thread rt tid).status with Finished -> true | _ -> false

let dummy_obj = O_location { name = "" }

let new_object rt obj =
  let id = rt.n_objects in
  let cap = Array.length rt.objects in
  if id = cap then begin
    let objects = Array.make (2 * cap) dummy_obj in
    Array.blit rt.objects 0 objects 0 cap;
    rt.objects <- objects;
    let deps = Array.make (2 * cap) [] in
    Array.blit rt.obj_deps 0 deps 0 cap;
    rt.obj_deps <- deps
  end;
  rt.objects.(id) <- obj;
  rt.obj_deps.(id) <- [];
  rt.n_objects <- id + 1;
  id

let find_object rt id =
  if id < 0 || id >= rt.n_objects then
    invalid_arg "Sct_core.Runtime: unknown object"
  else rt.objects.(id)

let promoted rt name = rt.promote name
let try_lock_result rt = rt.try_lock_result

let emit rt ev =
  match rt.listener with None -> () | Some f -> f ev

let listening rt = rt.listener <> None

let set_bug rt ~by b =
  if (not rt.teardown) && rt.outcome = None then
    rt.outcome <- Some (Outcome.Bug { bug = b; by })

let bug rt b =
  set_bug rt ~by:rt.running b;
  raise (Outcome.Bug_exn b)

let op_of th =
  match th.status with
  | Run_op (op, _) -> op
  | Running -> th.t_op
  | Run_spawn _ -> Op.Spawn
  | Blocked _ | Finished ->
      invalid_arg "Sct_core.Runtime: thread has no pending operation"

let pending_op rt tid =
  let th = thread rt tid in
  match th.status with
  | Run_op _ | Running | Run_spawn _ -> Some (op_of th)
  | Blocked _ | Finished -> None

(* Allocation-free probes for the bounding walks (consulted per decision on
   fair / variable / thread bounded explorations). *)
let pending_is_yield rt tid =
  let th = thread rt tid in
  match th.status with
  | Run_op (Op.Yield, _) -> true
  | Running -> ( match th.t_op with Op.Yield -> true | _ -> false)
  | _ -> false

let pending_obj_id rt tid =
  let th = thread rt tid in
  match th.status with
  | Run_op _ | Running -> (
      match Op.obj_id (op_of th) with Some o -> o | None -> -1)
  | Run_spawn _ | Blocked _ | Finished -> -1

let thread_live rt tid = (thread rt tid).t_live

let mutex_st rt id ~ctx =
  match find_object rt id with
  | O_mutex m -> m
  | _ -> invalid_arg ("Sct_core.Runtime: not a mutex: " ^ ctx)

let cond_st rt id =
  match find_object rt id with
  | O_cond c -> c
  | _ -> invalid_arg "Sct_core.Runtime: not a condition variable"

let sem_st rt id =
  match find_object rt id with
  | O_sem s -> s
  | _ -> invalid_arg "Sct_core.Runtime: not a semaphore"

let barrier_st rt id =
  match find_object rt id with
  | O_barrier b -> b
  | _ -> invalid_arg "Sct_core.Runtime: not a barrier"

let rw_st rt id =
  match find_object rt id with
  | O_rw r -> r
  | _ -> invalid_arg "Sct_core.Runtime: not a rwlock"

(* Enabledness of a pending visible operation, per the object state it will
   act on. Operations on destroyed mutexes stay enabled so that executing
   them reports the lock error. A lock whose holder is the thread itself is
   never enabled: self-deadlock, caught by the global deadlock check. *)
let op_enabled rt op =
  match op with
  | Op.Lock m | Op.Reacquire m ->
      let m = mutex_st rt m ~ctx:"lock" in
      m.destroyed || m.holder = None
  | Op.Join target -> thread_finished rt target
  | Op.Sem_wait s -> (sem_st rt s).count > 0
  | Op.Rd_lock l -> (rw_st rt l).writer = None
  | Op.Wr_lock l ->
      let r = rw_st rt l in
      r.writer = None && r.readers = []
  | Op.Spawn | Op.Try_lock _ | Op.Unlock _ | Op.Mutex_destroy _
  | Op.Cond_wait _ | Op.Signal _ | Op.Broadcast _ | Op.Sem_post _
  | Op.Barrier_wait _ | Op.Barrier_resume _ | Op.Rw_unlock _ | Op.Access _
  | Op.Yield ->
      true

let thread_enabled rt th =
  match th.status with
  | Run_op (op, _) -> op_enabled rt op
  | Running -> op_enabled rt th.t_op
  | Run_spawn _ -> true
  | Blocked _ | Finished -> false

let is_finished th = match th.status with Finished -> true | _ -> false

(* Testing hook: the enabled set recomputed from scratch, bypassing the
   incremental caches. The scheduling loop must always agree with this. *)
let recomputed_enabled rt =
  let acc = ref [] in
  for i = rt.count - 1 downto 0 do
    match rt.threads.(i) with
    | Some th when thread_enabled rt th -> acc := th.tid :: !acc
    | _ -> ()
  done;
  !acc

(* Order-independent fingerprint of an enabled set: xor of mixed per-tid
   hashes, maintained incrementally as threads flip enabledness. Explorers
   compare it against recorded values instead of re-walking the lists. *)
let fp_tid (t : Tid.t) =
  let h = (t + 1) * 0x9E3779B1 in
  h lxor (h lsr 16)

let fingerprint tids = List.fold_left (fun acc t -> acc lxor fp_tid t) 0 tids

(* --- dirty tracking ----------------------------------------------------
   A thread's cached enabledness is refreshed only when something that can
   affect it happened: it executed (new pending op), it was woken, an object
   its op blocks on changed state, or its join target finished. *)

let mark_dirty rt tid =
  let th = thread rt tid in
  if not th.t_dirty then begin
    th.t_dirty <- true;
    if rt.n_dirty = Array.length rt.dirty then begin
      let bigger = Array.make (2 * rt.n_dirty) 0 in
      Array.blit rt.dirty 0 bigger 0 rt.n_dirty;
      rt.dirty <- bigger
    end;
    rt.dirty.(rt.n_dirty) <- tid;
    rt.n_dirty <- rt.n_dirty + 1
  end

(* The object changed state: every thread whose pending op was evaluated
   against its old state must be re-evaluated. *)
let touch_obj rt id =
  match rt.obj_deps.(id) with
  | [] -> ()
  | deps ->
      rt.obj_deps.(id) <- [];
      List.iter (mark_dirty rt) deps

let touch_joiners rt th =
  match th.t_joiners with
  | [] -> ()
  | joiners ->
      th.t_joiners <- [];
      List.iter (mark_dirty rt) joiners

(* Evaluate [th]'s enabledness before its pending [op] and register it as
   a dependent of whatever [op] blocks on, so the next relevant state change
   re-evaluates it. Registration is cleared exactly when the object is
   touched, so a thread is registered at most once per object. *)
let eval_op rt th op =
  match op with
  | Op.Lock id | Op.Reacquire id ->
      rt.obj_deps.(id) <- th.tid :: rt.obj_deps.(id);
      let m = mutex_st rt id ~ctx:"lock" in
      m.destroyed || m.holder = None
  | Op.Join target ->
      let tth = thread rt target in
      if is_finished tth then true
      else begin
        tth.t_joiners <- th.tid :: tth.t_joiners;
        false
      end
  | Op.Sem_wait id ->
      rt.obj_deps.(id) <- th.tid :: rt.obj_deps.(id);
      (sem_st rt id).count > 0
  | Op.Rd_lock id ->
      rt.obj_deps.(id) <- th.tid :: rt.obj_deps.(id);
      (rw_st rt id).writer = None
  | Op.Wr_lock id ->
      rt.obj_deps.(id) <- th.tid :: rt.obj_deps.(id);
      let r = rw_st rt id in
      r.writer = None && r.readers = []
  | Op.Spawn | Op.Try_lock _ | Op.Unlock _ | Op.Mutex_destroy _
  | Op.Cond_wait _ | Op.Signal _ | Op.Broadcast _ | Op.Sem_post _
  | Op.Barrier_wait _ | Op.Barrier_resume _ | Op.Rw_unlock _
  | Op.Access _ | Op.Yield ->
      true

let eval_enabled rt th =
  match th.status with
  | Finished | Blocked _ -> false
  | Run_spawn _ -> true
  | Run_op (op, _) -> eval_op rt th op
  | Running -> eval_op rt th th.t_op

(* Re-derive one thread's cached state: its liveness (a finishing thread
   wakes its joiners, pushing them on the dirty stack), its enabledness, and
   with them the counters, the enabled-set fingerprint and the cached list. *)
let refresh rt th =
  th.t_dirty <- false;
  if th.t_live && is_finished th then begin
    th.t_live <- false;
    rt.n_live <- rt.n_live - 1;
    touch_joiners rt th
  end;
  let now = eval_enabled rt th in
  if now <> th.t_enabled then begin
    th.t_enabled <- now;
    rt.n_enabled <- rt.n_enabled + (if now then 1 else -1);
    rt.enabled_fp <- rt.enabled_fp lxor fp_tid th.tid;
    rt.enabled_cache <- []
  end

(* Drain the dirty stack. Refreshing a thread may push further work — the
   loop runs until the stack is empty. *)
let flush_dirty rt =
  while rt.n_dirty > 0 do
    rt.n_dirty <- rt.n_dirty - 1;
    refresh rt (thread rt rt.dirty.(rt.n_dirty))
  done

let live_tids rt =
  let acc = ref [] in
  for i = rt.count - 1 downto 0 do
    match rt.threads.(i) with
    | Some th when not (is_finished th) -> acc := th.tid :: !acc
    | _ -> ()
  done;
  !acc

(* The enabled set, in ascending tid order. The list is immutable, so the
   one built from the cached bits is handed out again at every decision
   until some bit flips. *)
let enabled_list rt =
  match rt.enabled_cache with
  | _ :: _ as l -> l
  | [] ->
      let acc = ref [] in
      for i = rt.count - 1 downto 0 do
        match rt.threads.(i) with
        | Some th when th.t_enabled -> acc := th.tid :: !acc
        | _ -> ()
      done;
      rt.enabled_cache <- !acc;
      !acc

let is_enabled rt tid =
  tid >= 0 && tid < rt.count
  && match rt.threads.(tid) with Some th -> th.t_enabled | None -> false

(* --- the bound-cost kernel ----------------------------------------------
   The per-thread costs of the pending decision (paper §2), read off the
   cached bits instead of scanning the enabled list. They agree with
   [Preemption.delta] and [Delay.delays] on every enabled thread. *)

let preemption_cost rt t =
  match rt.last with
  | Some l when not (Tid.equal l t) -> if is_enabled rt l then 1 else 0
  | Some _ | None -> 0

(* The enabled threads among the slots [lo, hi). *)
let rec enabled_in rt lo hi acc =
  if lo >= hi then acc
  else
    enabled_in rt (lo + 1) hi
      (match rt.threads.(lo) with
      | Some th when th.t_enabled -> acc + 1
      | _ -> acc)

let delay_cost rt t =
  match rt.last with
  | None -> 0
  | Some l ->
      (* the enabled threads in the circular range [l, t): one run of slots
         when it does not wrap, else [l, count) and [0, t) *)
      if t >= l then enabled_in rt l t 0
      else enabled_in rt 0 t (enabled_in rt l rt.count 0)

(* The singleton of the first enabled thread from slot [i] on. Called only
   when [n_enabled = 1], so some bit from slot 0 on is set: reaching the
   end means the counter and the bits disagree. *)
let rec first_enabled rt i =
  if i >= rt.count then
    invalid_arg
      "Sct_core.Runtime.single_enabled: n_enabled = 1 but no enabled bit"
  else
    match rt.threads.(i) with
    | Some th when th.t_enabled -> th.t_singleton
    | _ -> first_enabled rt (i + 1)

(* The enabled set when [n_enabled = 1], as the one enabled thread's
   preallocated singleton. Run-to-block stretches keep scheduling the same
   thread, so check [last] before scanning. *)
let single_enabled rt =
  match rt.last with
  | Some l -> (
      match rt.threads.(l) with
      | Some th when th.t_enabled -> th.t_singleton
      | _ -> first_enabled rt 0)
  | None -> first_enabled rt 0

(* What [decide] answers when the execution is over, and what [next] holds
   when no perform site took a decision. Thread ids are never negative. *)
let terminal = -1
let undecided = -2

(* Hold the places of the handler and of the scheduling context in a
   runtime record until [exec] installs the execution's own, before it
   starts any fibre. A context and its runtime point at each other, so the
   placeholders are built once, here, rather than per execution. *)
let no_handler : (unit, unit) Effect.Deep.handler =
  { retc = Fun.id; exnc = raise; effc = (fun _ -> None) }

let rec no_rt =
  {
    threads = [||];
    count = 0;
    objects = [||];
    obj_deps = [||];
    n_objects = 0;
    promote = (fun _ -> false);
    listener = None;
    max_steps = 0;
    record_decisions = false;
    sched_buf = [||];
    decisions_rev = [];
    steps = 0;
    outcome = None;
    last = None;
    pc = 0;
    dc = 0;
    max_enabled = 0;
    multi_points = 0;
    running = Tid.main;
    teardown = false;
    try_lock_result = false;
    n_live = 0;
    n_enabled = 0;
    enabled_fp = 0;
    enabled_cache = [];
    dirty = [||];
    n_dirty = 0;
    handler = no_handler;
    eff_op = Op.Yield;
    eff_spawn = ignore;
    scheduler = (fun _ -> Tid.main);
    ctx = no_ctx;
    in_step = false;
    next = undecided;
    kept = None;
  }

and no_ctx =
  {
    c_step = 0;
    c_last = None;
    c_enabled = [];
    c_n_enabled = 0;
    c_enabled_fp = 0;
    c_n_threads = 0;
    c_rt = no_rt;
  }

(* Ambient runtime: execution is fully serialised within a domain, so one
   slot per domain works; [exec] saves and restores it, allowing
   (non-concurrent) nesting. Domain-local storage keeps concurrent [exec]
   calls on distinct domains (lib/parallel) from clobbering each other. The
   slot holds the placeholder runtime outside of any execution, so a lookup
   allocates nothing and matches no option. *)
let ambient_rt : t Domain.DLS.key = Domain.DLS.new_key (fun () -> no_rt)

let ambient () =
  let rt = Domain.DLS.get ambient_rt in
  if rt == no_rt then invalid_arg "Sct_core.Runtime: no execution in progress"
  else rt

(* The shared effect handler. The fibre that returns, raises or suspends is
   always the one [execute]/[add_thread] just resumed, i.e. [rt.running] —
   so one handler serves every fibre, and its closures (plus the two
   [Some _] cells below) are allocated once per execution rather than once
   per scheduling step. *)
let make_handler rt : (unit, unit) Effect.Deep.handler =
  let open Effect.Deep in
  let on_visible (k : (unit, unit) continuation) =
    if rt.teardown then discontinue k Aborted
    else (thread rt rt.running).status <- Run_op (rt.eff_op, k)
  in
  let some_on_visible = Some on_visible in
  let on_spawn (k : (Tid.t, unit) continuation) =
    if rt.teardown then discontinue k Aborted
    else (thread rt rt.running).status <- Run_spawn (rt.eff_spawn, k)
  in
  let some_on_spawn = Some on_spawn in
  {
    retc = (fun () -> (thread rt rt.running).status <- Finished);
    exnc =
      (fun e ->
        let tid = rt.running in
        (thread rt tid).status <- Finished;
        match e with
        | Aborted -> ()
        | Outcome.Bug_exn b -> set_bug rt ~by:tid b
        | e ->
            set_bug rt ~by:tid (Outcome.Uncaught_exn (Printexc.to_string e)));
    effc =
      (fun (type a) (eff : a Effect.t) ->
        match eff with
        | Visible op ->
            rt.eff_op <- op;
            (some_on_visible
              : ((a, unit) continuation -> unit) option)
        | Spawn_eff f ->
            rt.eff_spawn <- f;
            (some_on_spawn
              : ((a, unit) continuation -> unit) option)
        | _ -> None);
  }

(* Run a new fibre. Control returns here when the fibre suspends at its
   next visible operation, finishes, or raises. *)
let start_fibre rt f = Effect.Deep.match_with f () rt.handler

(* A thread takes its decisions on its own stack once the loop has kept it
   running this many times. A fibre's stack starts at 64 words, and the
   first decision taken on it grows the stack by a copy: 110-250 ns, the
   price of four to eight suspends at about 30 ns each (2-core x86-64). A
   thread that has kept running is likely to keep running, and one that
   runs only a few steps never pays for the copy. *)
let in_place_after = 4

(* Continue the suspended fibre of [th] for its scheduled step. Until
   control returns to the loop, its visible operations may take decisions
   on its own stack (see [visible]). [continue] stays a tail call: a write
   after it that cleared the flag made a step about 25 % slower, so the
   loop clears it. *)
let resume (type a) rt th (k : (a, unit) Effect.Deep.continuation) (v : a) =
  rt.in_step <- th.t_kept >= in_place_after;
  Effect.Deep.continue k v

(* Create a thread and eagerly run its invisible prefix: a step is "a
   visible operation followed by invisible operations" (paper §2), so a
   fresh thread is parked just before its first visible operation (or may
   finish outright without ever occupying a schedule step). *)
let add_thread rt f =
  let tid = rt.count in
  if tid >= Array.length rt.threads then begin
    let bigger = Array.make (2 * Array.length rt.threads) None in
    Array.blit rt.threads 0 bigger 0 (Array.length rt.threads);
    rt.threads <- bigger
  end;
  let th =
    {
      tid;
      status = Finished;
      t_op = Op.Yield;
      t_kept = 0;
      t_singleton = [ tid ];
      t_enabled = false;
      t_dirty = false;
      t_live = false;
      t_joiners = [];
    }
  in
  rt.threads.(tid) <- Some th;
  rt.count <- tid + 1;
  let caller = rt.running in
  rt.running <- tid;
  start_fibre rt f;
  rt.running <- caller;
  (* initial accounting: no thread can depend on [tid] yet, and the next
     decision evaluates it with the step's other dirty threads *)
  if not (is_finished th) then begin
    th.t_live <- true;
    rt.n_live <- rt.n_live + 1;
    mark_dirty rt tid
  end;
  tid

let wake_cond_waiter rt cid w mid =
  let wth = thread rt w in
  match wth.status with
  | Blocked k ->
      if rt.listener <> None then emit rt (Event.Acquire { tid = w; obj = cid });
      wth.status <- Run_op (Op.Reacquire mid, k);
      mark_dirty rt w
  | _ -> invalid_arg "Sct_core.Runtime: condition waiter in wrong state"

(* How the thread whose operation [apply] applied goes on. *)
type applied =
  | Resume
  | Abort  (* the operation is a lock error: the bug is set, unwind it *)
  | Block  (* it waits in a condition variable's queue or at a barrier *)

(* Apply the visible operation [op] of [th], the running thread; the caller
   guarantees [op] is enabled. This is each operation's one implementation,
   for the loop and for a perform site alike. Every mutation of object state
   that can flip another thread's enabledness is followed by a [touch]; the
   next decision re-evaluates [th] itself. *)
let apply rt th op =
  let tid = th.tid in
  match op with
  | Op.Spawn -> invalid_arg "Sct_core.Runtime: impossible pending op"
  | Op.Yield | Op.Access _ ->
      (* Access semantics (the load/store itself and its race event) run in
         the fibre, once the operation returns. *)
      Resume
  | Op.Lock id ->
      let m = mutex_st rt id ~ctx:"lock" in
      if m.destroyed then (
        set_bug rt ~by:tid (Outcome.Lock_error "lock of destroyed mutex");
        Abort)
      else begin
        m.holder <- Some tid;
        touch_obj rt id;
        if rt.listener <> None then emit rt (Event.Acquire { tid; obj = id });
        Resume
      end
  | Op.Try_lock id ->
      let m = mutex_st rt id ~ctx:"try_lock" in
      if m.destroyed then (
        set_bug rt ~by:tid (Outcome.Lock_error "try_lock of destroyed mutex");
        Abort)
      else begin
        if m.holder = None then begin
          m.holder <- Some tid;
          touch_obj rt id;
          if rt.listener <> None then
            emit rt (Event.Acquire { tid; obj = id });
          rt.try_lock_result <- true
        end
        else rt.try_lock_result <- false;
        Resume
      end
  | Op.Unlock id ->
      let m = mutex_st rt id ~ctx:"unlock" in
      if m.destroyed then (
        set_bug rt ~by:tid (Outcome.Lock_error "unlock of destroyed mutex");
        Abort)
      else if m.holder <> Some tid then (
        set_bug rt ~by:tid
          (Outcome.Lock_error "unlock of mutex not held by the thread");
        Abort)
      else begin
        m.holder <- None;
        touch_obj rt id;
        if rt.listener <> None then emit rt (Event.Release { tid; obj = id });
        Resume
      end
  | Op.Mutex_destroy id ->
      let m = mutex_st rt id ~ctx:"destroy" in
      if m.destroyed then (
        set_bug rt ~by:tid (Outcome.Lock_error "double mutex destroy");
        Abort)
      else if m.holder <> None then (
        set_bug rt ~by:tid (Outcome.Lock_error "destroy of locked mutex");
        Abort)
      else begin
        m.destroyed <- true;
        touch_obj rt id;
        Resume
      end
  | Op.Cond_wait (cid, mid) ->
      let m = mutex_st rt mid ~ctx:"cond_wait" in
      if m.holder <> Some tid then (
        set_bug rt ~by:tid
          (Outcome.Lock_error "cond_wait without holding the mutex");
        Abort)
      else begin
        let c = cond_st rt cid in
        m.holder <- None;
        touch_obj rt mid;
        if rt.listener <> None then emit rt (Event.Release { tid; obj = mid });
        Queue.add (tid, mid) c.waiters;
        Block
      end
  | Op.Reacquire id ->
      let m = mutex_st rt id ~ctx:"reacquire" in
      if m.destroyed then (
        set_bug rt ~by:tid (Outcome.Lock_error "wait wake-up on destroyed mutex");
        Abort)
      else begin
        m.holder <- Some tid;
        touch_obj rt id;
        if rt.listener <> None then emit rt (Event.Acquire { tid; obj = id });
        Resume
      end
  | Op.Signal cid ->
      let c = cond_st rt cid in
      if rt.listener <> None then emit rt (Event.Release { tid; obj = cid });
      (match Queue.take_opt c.waiters with
      | None -> ()
      | Some (w, mid) -> wake_cond_waiter rt cid w mid);
      Resume
  | Op.Broadcast cid ->
      let c = cond_st rt cid in
      if rt.listener <> None then emit rt (Event.Release { tid; obj = cid });
      while not (Queue.is_empty c.waiters) do
        let w, mid = Queue.take c.waiters in
        wake_cond_waiter rt cid w mid
      done;
      Resume
  | Op.Sem_wait id ->
      let s = sem_st rt id in
      assert (s.count > 0);
      s.count <- s.count - 1;
      touch_obj rt id;
      if rt.listener <> None then emit rt (Event.Acquire { tid; obj = id });
      Resume
  | Op.Sem_post id ->
      let s = sem_st rt id in
      s.count <- s.count + 1;
      touch_obj rt id;
      if rt.listener <> None then emit rt (Event.Release { tid; obj = id });
      Resume
  | Op.Barrier_wait id ->
      let b = barrier_st rt id in
      if rt.listener <> None then emit rt (Event.Release { tid; obj = id });
      if b.n_waiting + 1 < b.size then begin
        b.waiting <- tid :: b.waiting;
        b.n_waiting <- b.n_waiting + 1;
        Block
      end
      else begin
        let woken = b.waiting in
        b.waiting <- [];
        b.n_waiting <- 0;
        List.iter
          (fun w ->
            let wth = thread rt w in
            match wth.status with
            | Blocked wk ->
                wth.status <- Run_op (Op.Barrier_resume id, wk);
                mark_dirty rt w
            | _ ->
                invalid_arg "Sct_core.Runtime: barrier waiter in wrong state")
          woken;
        if rt.listener <> None then emit rt (Event.Acquire { tid; obj = id });
        Resume
      end
  | Op.Barrier_resume id ->
      if rt.listener <> None then emit rt (Event.Acquire { tid; obj = id });
      Resume
  | Op.Rd_lock id ->
      let r = rw_st rt id in
      r.readers <- tid :: r.readers;
      touch_obj rt id;
      if rt.listener <> None then emit rt (Event.Acquire { tid; obj = id });
      Resume
  | Op.Wr_lock id ->
      let r = rw_st rt id in
      r.writer <- Some tid;
      touch_obj rt id;
      if rt.listener <> None then emit rt (Event.Acquire { tid; obj = id });
      Resume
  | Op.Rw_unlock id ->
      let r = rw_st rt id in
      if r.writer = Some tid then begin
        r.writer <- None;
        touch_obj rt id;
        if rt.listener <> None then emit rt (Event.Release { tid; obj = id });
        Resume
      end
      else if List.exists (Tid.equal tid) r.readers then begin
        r.readers <- List.filter (fun x -> not (Tid.equal tid x)) r.readers;
        touch_obj rt id;
        if rt.listener <> None then emit rt (Event.Release { tid; obj = id });
        Resume
      end
      else (
        set_bug rt ~by:tid
          (Outcome.Lock_error "rwlock unlock without holding it");
        Abort)
  | Op.Join target ->
      if rt.listener <> None then
        emit rt (Event.Joined { parent = tid; child = target });
      Resume

(* Execute the pending operation of [th], a suspended thread the loop
   chose, and resume it for its step. *)
let execute rt th =
  let tid = th.tid in
  rt.running <- tid;
  match th.status with
  | Finished | Running | Blocked _ ->
      invalid_arg "Sct_core.Runtime: scheduled a non-runnable thread"
  | Run_spawn (f, k) ->
      (* The handler (or retc/exnc) will overwrite the status as soon as the
         fibre suspends or terminates. *)
      th.status <- Finished;
      let child = rt.count in
      if rt.listener <> None then emit rt (Event.Fork { parent = tid; child });
      let child' = add_thread rt f in
      assert (child = child');
      resume rt th k child
  | Run_op (op, k) -> (
      th.status <- Finished;
      match apply rt th op with
      | Resume -> resume rt th k ()
      | Abort -> Effect.Deep.discontinue k Aborted
      | Block -> th.status <- Blocked k)

let discontinue_aborted (type a) (k : (a, unit) Effect.Deep.continuation) =
  try Effect.Deep.discontinue k Aborted
  with Aborted | Outcome.Bug_exn _ -> ()

let teardown rt =
  rt.teardown <- true;
  for i = 0 to rt.count - 1 do
    match rt.threads.(i) with
    | None -> ()
    | Some th -> (
        let fin (type a) (k : (a, unit) Effect.Deep.continuation) =
          th.status <- Finished;
          discontinue_aborted k
        in
        match th.status with
        | Finished | Running -> ()
        | Run_op (_, k) -> fin k
        | Run_spawn (_, k) -> fin k
        | Blocked k -> fin k)
  done

let push_sched rt tid =
  if rt.steps = Array.length rt.sched_buf then begin
    let bigger = Array.make (2 * rt.steps) 0 in
    Array.blit rt.sched_buf 0 bigger 0 rt.steps;
    rt.sched_buf <- bigger
  end;
  rt.sched_buf.(rt.steps) <- tid

let schedule_of rt =
  let rec build i acc =
    if i < 0 then acc else build (i - 1) (rt.sched_buf.(i) :: acc)
  in
  build (rt.steps - 1) []

(* The decision that follows the step of [th]: re-evaluate [th] in place
   unless its own step put it on the dirty stack, drain the stack, which
   holds the threads the step woke, blocked or created, then stop at a
   terminal state or ask the scheduler. Inlined, as [commit] is, into the
   loop and into the perform site. *)
let[@inline] decide rt th =
  if not th.t_dirty then refresh rt th;
  if rt.n_dirty > 0 then flush_dirty rt;
  match rt.outcome with
  | Some _ -> terminal
  | None ->
      if rt.n_live = 0 || rt.n_enabled = 0 || rt.steps >= rt.max_steps then
        terminal
      else begin
        let n_enabled = rt.n_enabled in
        if n_enabled > rt.max_enabled then rt.max_enabled <- n_enabled;
        if n_enabled > 1 then rt.multi_points <- rt.multi_points + 1;
        let ctx = rt.ctx in
        ctx.c_step <- rt.steps;
        ctx.c_last <- rt.last;
        ctx.c_enabled <-
          (if n_enabled = 1 then single_enabled rt else enabled_list rt);
        ctx.c_n_enabled <- n_enabled;
        ctx.c_enabled_fp <- rt.enabled_fp;
        ctx.c_n_threads <- rt.count;
        let chosen = rt.scheduler ctx in
        if not (is_enabled rt chosen) then
          invalid_arg "Sct_core.Runtime: scheduler chose a disabled thread";
        chosen
      end

(* The outcome of an execution [decide] found over. *)
let terminal_outcome rt =
  match rt.outcome with
  | Some o -> o
  | None ->
      if rt.n_live = 0 then Outcome.Ok
      else if rt.n_enabled = 0 then
        Outcome.Bug { bug = Outcome.Deadlock (live_tids rt); by = Tid.main }
      else Outcome.Step_limit

(* Record the decision [decide] took, which chose [th]: its decision
   record, the schedule, the bound counts, [last] and the step count. *)
let[@inline] commit rt th =
  let ctx = rt.ctx and chosen = th.tid in
  if rt.record_decisions then
    rt.decisions_rev <-
      {
        d_enabled = ctx.c_enabled;
        d_chosen = chosen;
        d_op = op_of th;
        d_n_threads = rt.count;
      }
      :: rt.decisions_rev;
  push_sched rt chosen;
  if ctx.c_n_enabled > 1 then begin
    (* with a single enabled thread both costs are 0 *)
    rt.pc <- rt.pc + preemption_cost rt chosen;
    rt.dc <- rt.dc + delay_cost rt chosen
  end;
  (match rt.last with
  | Some l when Tid.equal l chosen -> ()
  | _ -> rt.last <- Some chosen);
  rt.steps <- rt.steps + 1

(* Keep what a scheduler or a listener raised on a fibre's stack, for
   [exec] to re-raise once the fibre has suspended. *)
let keep rt e =
  rt.kept <- Some (e, Printexc.get_raw_backtrace ());
  terminal

(* Whether [op] can take its step on the running thread's own stack: it is
   enabled, so [decide] may choose it, and it needs no continuation, unlike
   a condition wait, a barrier arrival that blocks and a spawn. *)
let in_place rt op =
  match op with
  | Op.Cond_wait _ | Op.Spawn -> false
  | Op.Barrier_wait id ->
      let b = barrier_st rt id in
      b.n_waiting + 1 >= b.size
  | Op.Lock _ | Op.Reacquire _ | Op.Join _ | Op.Sem_wait _ | Op.Rd_lock _
  | Op.Wr_lock _ | Op.Try_lock _ | Op.Unlock _ | Op.Mutex_destroy _
  | Op.Signal _ | Op.Broadcast _ | Op.Sem_post _ | Op.Barrier_resume _
  | Op.Rw_unlock _ | Op.Access _ | Op.Yield ->
      op_enabled rt op

(* The perform site of a thread resumed for a scheduled step. If [op] can
   be applied in place, the thread takes the next decision here; when that
   keeps it running, the step is committed and applied, and the program
   goes on. Otherwise the fibre suspends with the decision, or what was
   raised, kept for the loop. Kept out of [visible], so that the suspend of
   a thread outside its step stays a small function. *)
let[@inline never] decide_here rt op =
  let th = thread rt rt.running in
  let chosen =
    try
      if in_place rt op then begin
        th.t_op <- op;
        th.status <- Running;
        decide rt th
      end
      else undecided
    with e -> keep rt e
  in
  if chosen = th.tid then begin
    commit rt th;
    (* as [execute] leaves a thread it resumes, until its next perform site *)
    th.status <- Finished;
    match apply rt th op with
    | Resume -> ()
    | Abort -> raise Aborted
    | Block ->
        (* [in_place] turned every blocking operation away *)
        invalid_arg "Sct_core.Runtime: blocked at a perform site"
    | exception e ->
        rt.next <- keep rt e;
        Effect.perform (Visible op)
  end
  else begin
    rt.next <- chosen;
    Effect.perform (Visible op)
  end

let visible rt op =
  if rt.in_step then decide_here rt op else Effect.perform (Visible op)

let spawn f = Effect.perform (Spawn_eff f)

(* The scheduling loop: commit the decision [chosen], execute it, and take
   the next decision, unless the fibre it resumed took it at its perform
   site. *)
let rec run rt chosen =
  if chosen >= 0 then begin
    let th = thread rt chosen in
    commit rt th;
    execute rt th;
    rt.in_step <- false;
    let next = rt.next in
    if next = undecided then begin
      let next = decide rt th in
      if next = th.tid then th.t_kept <- th.t_kept + 1;
      run rt next
    end
    else begin
      rt.next <- undecided;
      run rt next
    end
  end
  else
    match rt.kept with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> terminal_outcome rt

let exec ?(promote = fun _ -> false) ?listener ?(max_steps = 100_000)
    ?(record_decisions = true) ~scheduler program =
  let rt =
    {
      threads = Array.make 8 None;
      count = 0;
      objects = Array.make 16 dummy_obj;
      obj_deps = Array.make 16 [];
      n_objects = 0;
      promote;
      listener;
      max_steps;
      record_decisions;
      sched_buf = Array.make 64 0;
      decisions_rev = [];
      steps = 0;
      outcome = None;
      last = None;
      pc = 0;
      dc = 0;
      max_enabled = 0;
      multi_points = 0;
      running = Tid.main;
      teardown = false;
      try_lock_result = false;
      n_live = 0;
      n_enabled = 0;
      enabled_fp = 0;
      enabled_cache = [];
      dirty = Array.make 8 0;
      n_dirty = 0;
      handler = no_handler;
      eff_op = Op.Yield;
      eff_spawn = ignore;
      scheduler;
      ctx = no_ctx;
      in_step = false;
      next = undecided;
      kept = None;
    }
  in
  rt.ctx <-
    {
      c_step = 0;
      c_last = None;
      c_enabled = [];
      c_n_enabled = 0;
      c_enabled_fp = 0;
      c_n_threads = 0;
      c_rt = rt;
    };
  rt.handler <- make_handler rt;
  let saved = Domain.DLS.get ambient_rt in
  Domain.DLS.set ambient_rt rt;
  let restore () = Domain.DLS.set ambient_rt saved in
  let finish outcome =
    teardown rt;
    restore ();
    {
      r_outcome = outcome;
      r_schedule = schedule_of rt;
      r_decisions = List.rev rt.decisions_rev;
      r_pc = rt.pc;
      r_dc = rt.dc;
      r_n_threads = rt.count;
      r_max_enabled = rt.max_enabled;
      r_multi_points = rt.multi_points;
      r_steps = rt.steps;
    }
  in
  try
    let main = thread rt (add_thread rt program) in
    finish (run rt (decide rt main))
  with
  | Cut ->
      (* The scheduler abandoned the execution (all enabled continuations
         filtered by an execution-level bound): a terminal, non-buggy
         truncated prefix, like an execution stopped at [max_steps]. *)
      finish Outcome.Step_limit
  | e ->
      (* A scheduler or listener callback raised: tear down and re-raise. *)
      teardown rt;
      restore ();
      raise e
