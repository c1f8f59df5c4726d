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
  | Blocked_cond of { k : (unit, unit) Effect.Deep.continuation; mutex : int }
  | Blocked_barrier of (unit, unit) Effect.Deep.continuation
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
}

type ctx = {
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

(* Ambient runtime: execution is fully serialised within a domain, so one
   slot per domain works; [exec] saves and restores it, allowing
   (non-concurrent) nesting. Domain-local storage keeps concurrent [exec]
   calls on distinct domains (lib/parallel) from clobbering each other. *)
let ambient_rt : t option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let ambient () =
  match Domain.DLS.get ambient_rt with
  | Some rt -> rt
  | None -> invalid_arg "Sct_core.Runtime: no execution in progress"

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

let op_of_status = function
  | Run_op (op, _) -> op
  | Run_spawn _ -> Op.Spawn
  | Blocked_cond _ | Blocked_barrier _ | Finished ->
      invalid_arg "Sct_core.Runtime: thread has no pending operation"

let pending_op rt tid =
  match (thread rt tid).status with
  | (Run_op _ | Run_spawn _) as st -> Some (op_of_status st)
  | Blocked_cond _ | Blocked_barrier _ | Finished -> None

(* Allocation-free probes for the bounding walks (consulted per decision on
   fair / variable / thread bounded explorations). *)
let pending_is_yield rt tid =
  match (thread rt tid).status with
  | Run_op (Op.Yield, _) -> true
  | _ -> false

let pending_obj_id rt tid =
  match (thread rt tid).status with
  | Run_op (op, _) -> ( match Op.obj_id op with Some o -> o | None -> -1)
  | Run_spawn _ | Blocked_cond _ | Blocked_barrier _ | Finished -> -1

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
  | Run_spawn _ -> true
  | Blocked_cond _ | Blocked_barrier _ | Finished -> false

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

(* Evaluate [th]'s enabledness and register it as a dependent of whatever
   its pending op blocks on, so the next relevant state change re-evaluates
   it. Registration is cleared exactly when the object is touched, so a
   thread is registered at most once per object. *)
let eval_enabled rt th =
  match th.status with
  | Finished | Blocked_cond _ | Blocked_barrier _ -> false
  | Run_spawn _ -> true
  | Run_op (op, _) -> (
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
          true)

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

(* Holds the handler's place in a runtime record until [exec] installs the
   execution's own, before it starts any fibre. *)
let no_handler : (unit, unit) Effect.Deep.handler =
  { retc = Fun.id; exnc = raise; effc = (fun _ -> None) }

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

(* Run or resume a fibre. Control returns here when the fibre suspends at
   its next visible operation, finishes, or raises. *)
let start_fibre rt f = Effect.Deep.match_with f () rt.handler

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
  (* initial accounting: no thread can depend on [tid] yet *)
  if not (is_finished th) then begin
    th.t_live <- true;
    rt.n_live <- rt.n_live + 1
  end;
  refresh rt th;
  tid

let wake_cond_waiter rt cid w mid =
  let wth = thread rt w in
  match wth.status with
  | Blocked_cond { k; mutex } ->
      assert (mutex = mid);
      if rt.listener <> None then emit rt (Event.Acquire { tid = w; obj = cid });
      wth.status <- Run_op (Op.Reacquire mid, k);
      mark_dirty rt w
  | _ -> invalid_arg "Sct_core.Runtime: condition waiter in wrong state"

let continue_unit k = Effect.Deep.continue k ()

(* Execute the pending visible operation of thread [tid]; the caller
   guarantees the operation is enabled. Every mutation of object state that
   can flip another thread's enabledness is followed by a [touch]; the
   scheduling loop re-evaluates the executed thread itself. *)
let execute rt th =
  let tid = th.tid in
  rt.running <- tid;
  match th.status with
  | Finished | Blocked_cond _ | Blocked_barrier _ ->
      invalid_arg "Sct_core.Runtime: scheduled a non-runnable thread"
  | Run_spawn (f, k) ->
      (* The handler (or retc/exnc) will overwrite the status as soon as the
         fibre suspends or terminates. *)
      th.status <- Finished;
      let child = rt.count in
      if rt.listener <> None then emit rt (Event.Fork { parent = tid; child });
      let child' = add_thread rt f in
      assert (child = child');
      Effect.Deep.continue k child
  | Run_op (op, k) -> (
      th.status <- Finished;
      match op with
      | Op.Spawn -> invalid_arg "Sct_core.Runtime: impossible pending op"
      | Op.Yield | Op.Access _ ->
          (* Access semantics (the load/store itself and its race event)
             run in the fibre, immediately after resumption. *)
          continue_unit k
      | Op.Lock id ->
          let m = mutex_st rt id ~ctx:"lock" in
          if m.destroyed then (
            set_bug rt ~by:tid (Outcome.Lock_error "lock of destroyed mutex");
            Effect.Deep.discontinue k Aborted)
          else begin
            m.holder <- Some tid;
            touch_obj rt id;
            if rt.listener <> None then
              emit rt (Event.Acquire { tid; obj = id });
            continue_unit k
          end
      | Op.Try_lock id ->
          let m = mutex_st rt id ~ctx:"try_lock" in
          if m.destroyed then (
            set_bug rt ~by:tid
              (Outcome.Lock_error "try_lock of destroyed mutex");
            Effect.Deep.discontinue k Aborted)
          else begin
            if m.holder = None then begin
              m.holder <- Some tid;
              touch_obj rt id;
              if rt.listener <> None then
                emit rt (Event.Acquire { tid; obj = id });
              rt.try_lock_result <- true
            end
            else rt.try_lock_result <- false;
            continue_unit k
          end
      | Op.Unlock id ->
          let m = mutex_st rt id ~ctx:"unlock" in
          if m.destroyed then (
            set_bug rt ~by:tid (Outcome.Lock_error "unlock of destroyed mutex");
            Effect.Deep.discontinue k Aborted)
          else if m.holder <> Some tid then (
            set_bug rt ~by:tid
              (Outcome.Lock_error "unlock of mutex not held by the thread");
            Effect.Deep.discontinue k Aborted)
          else begin
            m.holder <- None;
            touch_obj rt id;
            if rt.listener <> None then
              emit rt (Event.Release { tid; obj = id });
            continue_unit k
          end
      | Op.Mutex_destroy id ->
          let m = mutex_st rt id ~ctx:"destroy" in
          if m.destroyed then (
            set_bug rt ~by:tid (Outcome.Lock_error "double mutex destroy");
            Effect.Deep.discontinue k Aborted)
          else if m.holder <> None then (
            set_bug rt ~by:tid (Outcome.Lock_error "destroy of locked mutex");
            Effect.Deep.discontinue k Aborted)
          else begin
            m.destroyed <- true;
            touch_obj rt id;
            continue_unit k
          end
      | Op.Cond_wait (cid, mid) ->
          let m = mutex_st rt mid ~ctx:"cond_wait" in
          if m.holder <> Some tid then (
            set_bug rt ~by:tid
              (Outcome.Lock_error "cond_wait without holding the mutex");
            Effect.Deep.discontinue k Aborted)
          else begin
            let c = cond_st rt cid in
            m.holder <- None;
            touch_obj rt mid;
            if rt.listener <> None then
              emit rt (Event.Release { tid; obj = mid });
            Queue.add (tid, mid) c.waiters;
            th.status <- Blocked_cond { k; mutex = mid }
          end
      | Op.Reacquire id ->
          let m = mutex_st rt id ~ctx:"reacquire" in
          if m.destroyed then (
            set_bug rt ~by:tid
              (Outcome.Lock_error "wait wake-up on destroyed mutex");
            Effect.Deep.discontinue k Aborted)
          else begin
            m.holder <- Some tid;
            touch_obj rt id;
            if rt.listener <> None then
              emit rt (Event.Acquire { tid; obj = id });
            continue_unit k
          end
      | Op.Signal cid ->
          let c = cond_st rt cid in
          if rt.listener <> None then
            emit rt (Event.Release { tid; obj = cid });
          (match Queue.take_opt c.waiters with
          | None -> ()
          | Some (w, mid) -> wake_cond_waiter rt cid w mid);
          continue_unit k
      | Op.Broadcast cid ->
          let c = cond_st rt cid in
          if rt.listener <> None then
            emit rt (Event.Release { tid; obj = cid });
          while not (Queue.is_empty c.waiters) do
            let w, mid = Queue.take c.waiters in
            wake_cond_waiter rt cid w mid
          done;
          continue_unit k
      | Op.Sem_wait id ->
          let s = sem_st rt id in
          assert (s.count > 0);
          s.count <- s.count - 1;
          touch_obj rt id;
          if rt.listener <> None then emit rt (Event.Acquire { tid; obj = id });
          continue_unit k
      | Op.Sem_post id ->
          let s = sem_st rt id in
          s.count <- s.count + 1;
          touch_obj rt id;
          if rt.listener <> None then emit rt (Event.Release { tid; obj = id });
          continue_unit k
      | Op.Barrier_wait id ->
          let b = barrier_st rt id in
          if rt.listener <> None then emit rt (Event.Release { tid; obj = id });
          if b.n_waiting + 1 < b.size then begin
            b.waiting <- tid :: b.waiting;
            b.n_waiting <- b.n_waiting + 1;
            th.status <- Blocked_barrier k
          end
          else begin
            let woken = b.waiting in
            b.waiting <- [];
            b.n_waiting <- 0;
            List.iter
              (fun w ->
                let wth = thread rt w in
                match wth.status with
                | Blocked_barrier wk ->
                    wth.status <- Run_op (Op.Barrier_resume id, wk);
                    mark_dirty rt w
                | _ ->
                    invalid_arg
                      "Sct_core.Runtime: barrier waiter in wrong state")
              woken;
            if rt.listener <> None then
              emit rt (Event.Acquire { tid; obj = id });
            continue_unit k
          end
      | Op.Barrier_resume id ->
          if rt.listener <> None then emit rt (Event.Acquire { tid; obj = id });
          continue_unit k
      | Op.Rd_lock id ->
          let r = rw_st rt id in
          r.readers <- tid :: r.readers;
          touch_obj rt id;
          if rt.listener <> None then emit rt (Event.Acquire { tid; obj = id });
          continue_unit k
      | Op.Wr_lock id ->
          let r = rw_st rt id in
          r.writer <- Some tid;
          touch_obj rt id;
          if rt.listener <> None then emit rt (Event.Acquire { tid; obj = id });
          continue_unit k
      | Op.Rw_unlock id ->
          let r = rw_st rt id in
          if r.writer = Some tid then begin
            r.writer <- None;
            touch_obj rt id;
            if rt.listener <> None then
              emit rt (Event.Release { tid; obj = id });
            continue_unit k
          end
          else if List.exists (Tid.equal tid) r.readers then begin
            r.readers <- List.filter (fun x -> not (Tid.equal tid x)) r.readers;
            touch_obj rt id;
            if rt.listener <> None then
              emit rt (Event.Release { tid; obj = id });
            continue_unit k
          end
          else (
            set_bug rt ~by:tid
              (Outcome.Lock_error "rwlock unlock without holding it");
            Effect.Deep.discontinue k Aborted)
      | Op.Join target ->
          if rt.listener <> None then
            emit rt (Event.Joined { parent = tid; child = target });
          continue_unit k)

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
        | Finished -> ()
        | Run_op (_, k) -> fin k
        | Run_spawn (_, k) -> fin k
        | Blocked_cond { k; _ } -> fin k
        | Blocked_barrier k -> fin k)
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
    }
  in
  rt.handler <- make_handler rt;
  let saved = Domain.DLS.get ambient_rt in
  Domain.DLS.set ambient_rt (Some rt);
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
    ignore (add_thread rt program);
    let ctx =
      {
        c_step = 0;
        c_last = None;
        c_enabled = [];
        c_n_enabled = 0;
        c_enabled_fp = 0;
        c_n_threads = 0;
        c_rt = rt;
      }
    in
    let rec loop () =
      match rt.outcome with
      | Some o -> o
      | None ->
          if rt.n_live = 0 then Outcome.Ok
          else if rt.n_enabled = 0 then
            Outcome.Bug { bug = Outcome.Deadlock (live_tids rt); by = Tid.main }
          else if rt.steps >= rt.max_steps then Outcome.Step_limit
          else begin
            let n_enabled = rt.n_enabled in
            if n_enabled > rt.max_enabled then rt.max_enabled <- n_enabled;
            if n_enabled > 1 then rt.multi_points <- rt.multi_points + 1;
            let enabled =
              if n_enabled = 1 then single_enabled rt else enabled_list rt
            in
            ctx.c_step <- rt.steps;
            ctx.c_last <- rt.last;
            ctx.c_enabled <- enabled;
            ctx.c_n_enabled <- n_enabled;
            ctx.c_enabled_fp <- rt.enabled_fp;
            ctx.c_n_threads <- rt.count;
            let chosen = scheduler ctx in
            if not (is_enabled rt chosen) then
              invalid_arg "Sct_core.Runtime: scheduler chose a disabled thread";
            let th = thread rt chosen in
            if record_decisions then
              rt.decisions_rev <-
                {
                  d_enabled = enabled;
                  d_chosen = chosen;
                  d_op = op_of_status th.status;
                  d_n_threads = rt.count;
                }
                :: rt.decisions_rev;
            push_sched rt chosen;
            if n_enabled > 1 then begin
              (* with a single enabled thread both costs are 0 *)
              rt.pc <- rt.pc + preemption_cost rt chosen;
              rt.dc <- rt.dc + delay_cost rt chosen
            end;
            (match rt.last with
            | Some l when Tid.equal l chosen -> ()
            | _ -> rt.last <- Some chosen);
            rt.steps <- rt.steps + 1;
            execute rt th;
            (* Re-evaluate the executed thread first, in place, unless its
               own step put it on the dirty stack; then drain the stack, which
               holds the threads the step woke or blocked, if it holds any. *)
            if not th.t_dirty then refresh rt th;
            if rt.n_dirty > 0 then flush_dirty rt;
            loop ()
          end
    in
    let outcome = loop () in
    finish outcome
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
