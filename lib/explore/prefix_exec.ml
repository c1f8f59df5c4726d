open Sct_core

(* Prefix-batch step accounting. A depth-first walk re-executes the whole
   program for every terminal schedule, yet consecutive terminals share all
   decisions above their divergence point; a batch of sibling
   continuations would pay that shared prefix once. The observer below
   counts those decisions from the stream of terminal schedules alone, so
   a batched campaign is the plain bounded walk plus this counter. *)

let rec common_prefix_len n (a : Tid.t list) (b : Tid.t list) =
  match (a, b) with
  | x :: a', y :: b' when Tid.equal x y -> common_prefix_len (n + 1) a' b'
  | _ -> n

(* The divergence depth of consecutive terminals (in walk order) is the
   length of the prefix a batch keeps alive; the walk's first terminal
   pays its full schedule. *)
let observer saved () =
  let prev = ref None in
  fun (res : Runtime.result) ->
    let sched = Schedule.to_list res.r_schedule in
    (match !prev with
    | None -> ()
    | Some p -> saved := !saved + common_prefix_len 0 p sched);
    prev := Some sched

(* Kept for ledger/workloads.ml only (see the interface). The OCaml runtime
   permanently refuses to fork a process that ever spawned a second
   domain; the parallel pool records its first spawn here. *)
let domains_spawned = Atomic.make false
let note_domains_spawned () = Atomic.set domains_spawned true

let fork_available () =
  Sys.os_type = "Unix"
  && Domain.is_main_domain ()
  && not (Atomic.get domains_spawned)
