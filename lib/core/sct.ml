let rt () = Runtime.ambient ()

(* Every visible operation reaches the runtime through [Runtime.visible].
   Objects cache the runtime that created them, as [Var] explains below;
   the operations that name no object read the ambient one. *)
let join tid = Runtime.visible (rt ()) (Op.Join tid)
let yield () = Runtime.visible (rt ()) Op.Yield
let spawn = Runtime.spawn
let self () = Runtime.self (rt ())

let check cond msg =
  if not cond then raise (Outcome.Bug_exn (Outcome.Assertion_failure msg))

let fail msg = raise (Outcome.Bug_exn (Outcome.Assertion_failure msg))
let memory_error msg = raise (Outcome.Bug_exn (Outcome.Memory_error msg))

(* A synchronisation object: its id and the runtime that created it. *)
type obj = { id : int; lrt : Runtime.t }

let make_obj o =
  let r = rt () in
  { id = Runtime.new_object r o; lrt = r }

module Mutex = struct
  type t = obj

  let create () = make_obj (O_mutex { holder = None; destroyed = false })
  let lock m = Runtime.visible m.lrt (Op.Lock m.id)
  let unlock m = Runtime.visible m.lrt (Op.Unlock m.id)

  let try_lock m =
    Runtime.visible m.lrt (Op.Try_lock m.id);
    Runtime.try_lock_result m.lrt

  let destroy m = Runtime.visible m.lrt (Op.Mutex_destroy m.id)
  let id m = m.id
end

module Cond = struct
  type t = obj

  let create () = make_obj (O_cond { waiters = Queue.create () })
  let wait c m = Runtime.visible c.lrt (Op.Cond_wait (c.id, Mutex.id m))
  let signal c = Runtime.visible c.lrt (Op.Signal c.id)
  let broadcast c = Runtime.visible c.lrt (Op.Broadcast c.id)
  let id c = c.id
end

module Sem = struct
  type t = obj

  let create count =
    if count < 0 then invalid_arg "Sct.Sem.create: negative count";
    make_obj (O_sem { count })

  let wait s = Runtime.visible s.lrt (Op.Sem_wait s.id)
  let post s = Runtime.visible s.lrt (Op.Sem_post s.id)
  let id s = s.id
end

module Barrier = struct
  type t = obj

  let create size =
    if size <= 0 then invalid_arg "Sct.Barrier.create: non-positive size";
    make_obj (O_barrier { size; waiting = []; n_waiting = 0 })

  let wait b = Runtime.visible b.lrt (Op.Barrier_wait b.id)
  let id b = b.id
end

module Rwlock = struct
  type t = obj

  let create () = make_obj (O_rw { readers = []; writer = None })
  let rd_lock l = Runtime.visible l.lrt (Op.Rd_lock l.id)
  let wr_lock l = Runtime.visible l.lrt (Op.Wr_lock l.id)
  let unlock l = Runtime.visible l.lrt (Op.Rw_unlock l.id)
  let id l = l.id
end

(* Shared locations register an [O_location] with the runtime so they get an
   id in the single object-id namespace; their typed contents stay here.
   Unnamed locations get a stable creation-order-derived name.

   The creating runtime is cached in the record: [make] can only run inside
   {!Runtime.exec} (the ambient lookup raises otherwise), so the cached
   runtime is always the ambient one and per-access DLS lookups go away. *)
module Var = struct
  type 'a t = {
    id : int;
    name : string;
    mutable v : 'a;
    promoted : bool;
    lrt : Runtime.t;
    (* preallocated visible ops: an access performs one of these two
       records instead of building a fresh one per read/write *)
    op_read : Op.t;
    op_write : Op.t;
  }

  let make ?name v =
    let r = rt () in
    let id, name =
      match name with
      | Some n -> (Runtime.new_object r (O_location { name = n }), n)
      | None ->
          let id = Runtime.new_object r (O_location { name = "" }) in
          (id, "loc" ^ string_of_int id)
    in
    {
      id;
      name;
      v;
      promoted = Runtime.promoted r name;
      lrt = r;
      op_read = Op.Access { id; name; kind = Op.Plain_read };
      op_write = Op.Access { id; name; kind = Op.Plain_write };
    }

  let access x kind =
    let r = x.lrt in
    if x.promoted then
      Runtime.visible r
        (match kind with
        | Op.Plain_read -> x.op_read
        | Op.Plain_write -> x.op_write
        | Op.Atomic_op _ -> Op.Access { id = x.id; name = x.name; kind });
    if Runtime.listening r then
      Runtime.emit r
        (Event.Access { tid = Runtime.self r; id = x.id; name = x.name; kind })

  let read x =
    access x Op.Plain_read;
    x.v

  let write x v =
    access x Op.Plain_write;
    x.v <- v

  let name x = x.name
  let id x = x.id
end

module Atomic = struct
  type 'a t = { id : int; name : string; mutable v : 'a; lrt : Runtime.t }

  let make ?name v =
    let r = rt () in
    let id, name =
      match name with
      | Some n -> (Runtime.new_object r (O_location { name = n }), n)
      | None ->
          let id = Runtime.new_object r (O_location { name = "" }) in
          (id, "atomic" ^ string_of_int id)
    in
    { id; name; v; lrt = r }

  (* Every atomic op is a visible operation and a full synchronisation
     (acquire + release) on the location, so the race detector orders all
     atomic accesses to the same location. *)
  let sync x opname =
    let r = x.lrt in
    Runtime.visible r
      (Op.Access { id = x.id; name = x.name; kind = Op.Atomic_op opname });
    if Runtime.listening r then begin
      let tid = Runtime.self r in
      Runtime.emit r
        (Event.Access { tid; id = x.id; name = x.name; kind = Op.Atomic_op opname });
      Runtime.emit r (Event.Acquire { tid; obj = x.id });
      Runtime.emit r (Event.Release { tid; obj = x.id })
    end

  let load x =
    sync x "load";
    x.v

  let store x v =
    sync x "store";
    x.v <- v

  let exchange x v =
    sync x "xchg";
    let old = x.v in
    x.v <- v;
    old

  let compare_and_set x expected desired =
    sync x "cas";
    if x.v = expected then begin
      x.v <- desired;
      true
    end
    else false

  let fetch_and_add x d =
    sync x "faa";
    let old = x.v in
    x.v <- old + d;
    old

  let incr x = ignore (fetch_and_add x 1)
  let decr x = ignore (fetch_and_add x (-1))
  let name x = x.name
  let id x = x.id
end

module Arr = struct
  type 'a t = {
    id : int;
    name : string;
    data : 'a array;
    promoted : bool;
    lrt : Runtime.t;
    op_read : Op.t;
    op_write : Op.t;
  }

  let make ?name n v =
    let r = rt () in
    let id, name =
      match name with
      | Some nm -> (Runtime.new_object r (O_location { name = nm }), nm)
      | None ->
          let id = Runtime.new_object r (O_location { name = "" }) in
          (id, "arr" ^ string_of_int id)
    in
    if n < 0 then memory_error (Printf.sprintf "%s: negative length %d" name n);
    {
      id;
      name;
      data = Array.make n v;
      promoted = Runtime.promoted r name;
      lrt = r;
      op_read = Op.Access { id; name; kind = Op.Plain_read };
      op_write = Op.Access { id; name; kind = Op.Plain_write };
    }

  let access x kind =
    let r = x.lrt in
    if x.promoted then
      Runtime.visible r
        (match kind with
        | Op.Plain_read -> x.op_read
        | Op.Plain_write -> x.op_write
        | Op.Atomic_op _ -> Op.Access { id = x.id; name = x.name; kind });
    if Runtime.listening r then
      Runtime.emit r
        (Event.Access { tid = Runtime.self r; id = x.id; name = x.name; kind })

  let bounds_check x i =
    if i < 0 || i >= Array.length x.data then
      memory_error
        (Printf.sprintf "%s: index %d out of bounds [0,%d)" x.name i
           (Array.length x.data))

  let get x i =
    access x Op.Plain_read;
    bounds_check x i;
    x.data.(i)

  let set x i v =
    access x Op.Plain_write;
    bounds_check x i;
    x.data.(i) <- v

  let length x = Array.length x.data
  let name x = x.name
end
