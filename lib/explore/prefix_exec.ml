open Sct_core

(* Prefix-memoizing batched executor for systematic schedule-tree walks.

   A depth-first walk re-executes the whole program for every terminal
   schedule, yet consecutive terminals share all decisions above their
   divergence point. This module walks the same (bounded) tree in the same
   order and counts the shared decisions a batch of sibling continuations
   would not re-execute:

   - fork server: the program runs once under a scheduler that, at every
     in-bound branching decision, [Unix.fork]s one child per sibling
     branch except the last. A forked child IS the memoized prefix
     state — process duplication is the only way to snapshot an OCaml 5
     effects-based execution, whose continuations are one-shot. Terminal
     results are piped back to the collector (the original process) in
     exact sequential DFS order; a control byte per terminal propagates the
     budget/deadline stop decision back into the process tree.

   - re-execution fallback (the portable path): delegate to the classic
     backtracking walk ({!Dfs.explore}), which replays every prefix.

   Both back-ends report the same *analytic* step counters, derived from
   the stream of terminal schedules alone: the divergence depth of
   consecutive terminals is exactly the fork depth, so [steps_saved] is the
   number of decisions the fork server did not re-execute and
   [steps_executed + steps_saved] is the sum of terminal schedule lengths
   (what an unbatched campaign pays). Statistics are therefore
   byte-identical whichever back-end ran — and identical to the unbatched
   driver except for the two step counters.

   The counters are analytic: neither back-end runs faster than the plain
   driver. A fork and a pipe round trip per sibling cost far more than
   re-running a short prefix (see prefix_exec.mli for a measurement). *)

(* --- fork availability -------------------------------------------------- *)

(* The OCaml runtime permanently refuses [Unix.fork] in any process that
   ever spawned a second domain — not just while one is alive. The parallel
   pool records its first domain spawn here, which disables the fork server
   for the remainder of the process; single-domain runs (the CLI's inline
   one-job pool, sequential campaigns) keep the fork server. *)
let domains_spawned = Atomic.make false
let note_domains_spawned () = Atomic.set domains_spawned true

let fork_available () =
  Sys.os_type = "Unix"
  && Domain.is_main_domain ()
  && not (Atomic.get domains_spawned)

(* --- analytic step accounting ------------------------------------------- *)

let rec common_prefix_len n (a : Tid.t list) (b : Tid.t list) =
  match (a, b) with
  | x :: a', y :: b' when Tid.equal x y -> common_prefix_len (n + 1) a' b'
  | _ -> n

(* Folds the terminal-schedule stream into the two step counters. The
   divergence depth of consecutive terminals (in DFS order) is the length
   of the prefix the fork server kept alive — the first terminal of a walk
   pays its full schedule. *)
type steps_acc = {
  mutable sa_prev : Tid.t list option;
  mutable sa_executed : int;
  mutable sa_saved : int;
}

let steps_acc () = { sa_prev = None; sa_executed = 0; sa_saved = 0 }

let steps_observe acc (res : Runtime.result) =
  let sched = Schedule.to_list res.r_schedule in
  let div =
    match acc.sa_prev with
    | None -> 0
    | Some prev -> common_prefix_len 0 prev sched
  in
  acc.sa_executed <- acc.sa_executed + res.r_steps - div;
  acc.sa_saved <- acc.sa_saved + div;
  acc.sa_prev <- Some sched

(* --- re-execution fallback ---------------------------------------------- *)

let fallback_explore ?promote ?max_steps ?count_exact ?deadline ~bound ~limit
    program =
  let acc = steps_acc () in
  let r =
    Dfs.explore ?promote ?max_steps ?count_exact ?deadline
      ~on_exec:(steps_observe acc) ~bound ~limit program
  in
  { r with Strategy.steps_executed = acc.sa_executed; steps_saved = acc.sa_saved }

(* --- fork-server pipes --------------------------------------------------- *)

let rec really_write fd buf pos len =
  if len > 0 then begin
    let n = Unix.write fd buf pos len in
    really_write fd buf (pos + n) (len - n)
  end

(* [Some] on a full read, [None] on EOF at the first byte; EOF mid-record
   can only follow a worker crash, which the root exit status reports. *)
let really_read fd buf len =
  let rec go pos =
    if pos >= len then true
    else
      match Unix.read fd buf pos (len - pos) with
      | 0 -> if pos = 0 then false else failwith "Prefix_exec: torn record"
      | n -> go (pos + n)
  in
  go 0

let write_frame fd payload =
  let header = Bytes.create 4 in
  Bytes.set_int32_le header 0 (Int32.of_int (Bytes.length payload));
  really_write fd header 0 4;
  really_write fd payload 0 (Bytes.length payload)

let read_frame fd =
  let header = Bytes.create 4 in
  if not (really_read fd header 4) then None
  else begin
    let len = Int32.to_int (Bytes.get_int32_le header 0) in
    let payload = Bytes.create len in
    if not (really_read fd payload len) then
      failwith "Prefix_exec: torn record";
    Some payload
  end

(* --- the fork-server worker --------------------------------------------- *)

let exit_ok = 0
let exit_error = 2
let exit_stopped = 3

(* Runs in the forked worker tree; never returns. The process executes the
   program once under a scheduler that forks at every branching decision:
   the child takes the first untried branch, the parent waits for the
   child's whole subtree before trying the next. Exactly one process is
   ever running (the rest block in [waitpid]), so terminal frames hit the
   result pipe strictly in sequential DFS order and never interleave. *)
let run_worker ~result_w ~control_r ?promote ?max_steps ~bound program :
    'never =
  (match bound with
  | Dfs.Variable _ | Dfs.Threads _ ->
      (* [Techniques.run] batches only DFS, IPB and IDB *)
      invalid_arg "Sct_explore.Prefix_exec: footprint bounds are unsupported"
  | Dfs.Unbounded | Dfs.Preemption _ | Dfs.Delay _ -> ());
  let shape = Dfs.cost_shape bound and bound_c = Dfs.bound_limit bound in
  let cur = ref 0 in
  let pruned = ref false in
  let reap pid =
    match snd (Unix.waitpid [] pid) with
    | Unix.WEXITED 0 -> ()
    | Unix.WEXITED n when n = exit_stopped ->
        (* the collector stopped the campaign inside the child's subtree:
           abandon our remaining branches and tell our own parent *)
        Unix._exit exit_stopped
    | _ -> Unix._exit exit_error
  in
  (* all but the last branch go to forked children, in sibling order; the
     reap between forks is what serializes the process tree *)
  let rec branch = function
    | [] -> assert false
    | [ t ] -> t
    | t :: rest -> (
        match Unix.fork () with
        | 0 -> t
        | pid ->
            reap pid;
            branch rest)
  in
  let scheduler (ctx : Runtime.ctx) =
    match ctx.c_enabled with
    | [ t ] -> t (* the only child; its cost is 0 *)
    | enabled ->
        let allowed, cut =
          Bound_cost.candidates shape ~budget:(bound_c - !cur)
            ~n:ctx.c_n_threads ~last:ctx.c_last ~enabled
        in
        if cut then pruned := true;
        (* children inherit [pruned]: a pruning event reaches the collector
           with the first terminal of the pruned decision's subtree, exactly
           when a sequential walk would observe it *)
        let t = branch allowed in
        cur := !cur + Bound_cost.cost shape ctx t;
        t
  in
  let code =
    try
      let res =
        Runtime.exec ?promote ?max_steps ~record_decisions:false ~scheduler
          program
      in
      write_frame result_w (Marshal.to_bytes (res, !pruned) []);
      let b = Bytes.create 1 in
      if really_read control_r b 1 && Bytes.get b 0 = 'c' then exit_ok
      else exit_stopped
    with _ -> exit_error
  in
  (* [_exit]: never flush channel buffers inherited from the collector *)
  Unix._exit code

(* --- the collector ------------------------------------------------------ *)

(* Replicates Driver.explore's stop bookkeeping exactly: the budget check
   precedes the deadline check after every terminal (counted or not), and a
   stop leaves [complete] false even when it lands on the last terminal. *)
let fork_explore ?promote ?max_steps ?count_exact ?deadline ~bound ~limit
    program : Strategy.walk_result =
  let counts (res : Runtime.result) =
    let exact =
      match bound with
      | Dfs.Unbounded | Dfs.Preemption _ -> res.r_pc
      | Dfs.Delay _ -> res.r_dc
      | Dfs.Variable _ | Dfs.Threads _ ->
          invalid_arg
            "Sct_explore.Prefix_exec: footprint bounds are unsupported"
    in
    match count_exact with None -> true | Some c -> exact = c
  in
  let result_r, result_w = Unix.pipe ~cloexec:false () in
  let control_r, control_w = Unix.pipe ~cloexec:false () in
  match Unix.fork () with
  | 0 ->
      Unix.close result_r;
      Unix.close control_w;
      run_worker ~result_w ~control_r ?promote ?max_steps ~bound program
  | root_pid ->
      Unix.close result_w;
      Unix.close control_r;
      let counted = ref 0 in
      let buggy = ref 0 in
      let to_first_bug = ref None in
      let first_bug = ref None in
      let executions = ref 0 in
      let n_threads = ref 0 in
      let max_enabled = ref 0 in
      let max_points = ref 0 in
      let pruned = ref false in
      let hit_limit = ref false in
      let hit_deadline = ref false in
      let stopped = ref false in
      let acc = steps_acc () in
      let finish () =
        Unix.close result_r;
        Unix.close control_w;
        match snd (Unix.waitpid [] root_pid) with
        | Unix.WEXITED n when n = exit_error ->
            failwith "Sct_explore.Prefix_exec: worker process failed"
        | _ -> ()
      in
      let collect () =
        let control = Bytes.create 1 in
        let rec loop () =
          match read_frame result_r with
          | None -> () (* EOF: the tree is exhausted *)
          | Some payload ->
              let (res : Runtime.result), (w_pruned : bool) =
                Marshal.from_bytes payload 0
              in
              incr executions;
              steps_observe acc res;
              n_threads := max !n_threads res.r_n_threads;
              max_enabled := max !max_enabled res.r_max_enabled;
              max_points := max !max_points res.r_multi_points;
              pruned := !pruned || w_pruned;
              if counts res then begin
                incr counted;
                match res.r_outcome with
                | Outcome.Bug { bug; by } ->
                    incr buggy;
                    if !to_first_bug = None then begin
                      to_first_bug := Some !counted;
                      first_bug :=
                        Some
                          {
                            Stats.w_bug = bug;
                            w_by = by;
                            w_schedule = res.r_schedule;
                            w_pc = res.r_pc;
                            w_dc = res.r_dc;
                          }
                    end
                | Outcome.Ok | Outcome.Step_limit -> ()
              end;
              let stop =
                if !counted >= limit then begin
                  hit_limit := true;
                  true
                end
                else
                  match deadline with
                  | Some dl when Unix.gettimeofday () > dl ->
                      hit_deadline := true;
                      true
                  | _ -> false
              in
              Bytes.set control 0 (if stop then 's' else 'c');
              really_write control_w control 0 1;
              if stop then stopped := true else loop ()
        in
        loop ()
      in
      (match collect () with
      | () -> finish ()
      | exception e ->
          (try finish () with _ -> ());
          raise e);
      {
        Strategy.counted = !counted;
        buggy = !buggy;
        to_first_bug = !to_first_bug;
        first_bug = !first_bug;
        pruned = !pruned;
        hit_limit = !hit_limit;
        hit_deadline = !hit_deadline;
        complete = not !stopped;
        executions = !executions;
        steps_executed = acc.sa_executed;
        steps_saved = acc.sa_saved;
        n_threads = !n_threads;
        max_enabled = !max_enabled;
        max_sched_points = !max_points;
      }

(* --- entry point -------------------------------------------------------- *)

let explore ?promote ?max_steps ?count_exact ?fork ?deadline ~bound ~limit
    program =
  let use_fork =
    match fork with Some b -> b | None -> fork_available ()
  in
  if (not use_fork) || limit <= 0 then
    fallback_explore ?promote ?max_steps ?count_exact ?deadline ~bound ~limit
      program
  else
    fork_explore ?promote ?max_steps ?count_exact ?deadline ~bound ~limit
      program
