open Sct_core

type akind = R | W | A

let akind_of = function
  | Op.Plain_read -> R
  | Op.Plain_write -> W
  | Op.Atomic_op _ -> A

let is_write = function W | A -> true | R -> false

(* An idiom-1 iRoot: on [loc], an access of kind [first] is immediately
   followed (in the location's access history) by an access of kind [second]
   from a different thread. *)
type iroot = { loc : string; first : akind; second : akind }

module Iroot_set = Set.Make (struct
  type t = iroot

  let compare = compare
end)

(* Profiling state: the observed iRoots, the latest access kind per
   (location, thread), and the lockset context of each (location, kind) —
   the synchronisation objects held when such an access was performed.
   Maple forces iRoots at the instruction level, where a thread can be held
   just before the lock acquisition guarding the access; the lockset lets
   the active phase do the same. *)
type profile = {
  mutable observed : Iroot_set.t;
      (** pairs built from every kind each peer thread has used: the
          candidate-generating set *)
  mutable adjacent : Iroot_set.t;
      (** pairs built from each peer's latest access only: the (stricter)
          already-seen set used to filter candidates *)
  last_access :
    (string, (Sct_core.Tid.t, akind * akind list) Hashtbl.t) Hashtbl.t;
      (** per location: each thread's latest access kind and kind set *)
}

let new_profile () =
  {
    observed = Iroot_set.empty;
    adjacent = Iroot_set.empty;
    last_access = Hashtbl.create 64;
  }

(* Record, for every access, iRoot pairs with other threads' previous
   accesses to the same location (Maple's idiom-1 inter-thread
   dependencies), provided at least one side is a write: against each
   peer's latest kind for the already-seen set, and against each peer's
   whole kind set for the candidate-generating set. *)
let observe_run_pairs p (ev : Event.t) =
  match ev with
  | Event.Access { tid; name; kind; _ } ->
      let k = akind_of kind in
      let per_thread =
        match Hashtbl.find_opt p.last_access name with
        | Some m -> m
        | None ->
            let m = Hashtbl.create 4 in
            Hashtbl.replace p.last_access name m;
            m
      in
      Hashtbl.iter
        (fun prev_tid (latest, prev_ks) ->
          if prev_tid <> tid then begin
            if is_write latest || is_write k then
              p.adjacent <-
                Iroot_set.add { loc = name; first = latest; second = k }
                  p.adjacent;
            List.iter
              (fun prev_k ->
                if is_write prev_k || is_write k then
                  p.observed <-
                    Iroot_set.add
                      { loc = name; first = prev_k; second = k }
                      p.observed)
              prev_ks
          end)
        per_thread;
      let ks =
        match Hashtbl.find_opt per_thread tid with
        | Some (_, ks) -> if List.mem k ks then ks else k :: ks
        | None -> [ k ]
      in
      Hashtbl.replace per_thread tid (k, ks)
  | Event.Acquire _ | Event.Release _ | Event.Fork _ | Event.Joined _ -> ()

(* The profiling scheduler. Maple profiles under native, uncontrolled
   execution, which is mostly run-to-block scheduling with occasional OS
   preemptions; we model that as round-robin with sparse random
   deviations. *)
let profile_choose rng (ctx : Runtime.ctx) =
  if Random.State.int rng 16 = 0 then Runtime.uniform_pick rng ctx
  else Replay.round_robin ctx

(* Candidates = unobserved reversals on promoted locations, in the
   (deterministic) set order. *)
let candidates ~promote ~observed ~adjacent =
  Iroot_set.elements
    (Iroot_set.fold
       (fun r acc ->
         let rev = { r with first = r.second; second = r.first } in
         if promote r.loc && not (Iroot_set.mem rev adjacent) then
           Iroot_set.add rev acc
         else acc)
       observed Iroot_set.empty)

let kind_matches k op_kind = akind_of op_kind = k

(* The active scheduler: round-robin, but a thread about to perform the
   [second] access of the target is withheld until some other thread
   performs the [first] access — then scheduling returns to plain
   round-robin. Maple's own forcing gives up after a bounded wait (its
   "timeout" heuristics); we model that with a withholding budget
   ([patience]). *)
let active_choose ~forced ~patience target (ctx : Runtime.ctx) =
  let rt = ctx.c_rt in
  let pending_matches t k =
    match Runtime.pending_op rt t with
    | Some (Op.Access { name; kind; _ }) ->
        name = target.loc && kind_matches k kind
    | _ -> false
  in
  let pending_second t = pending_matches t target.second in
  let order =
    Delay.rr_order ~n:ctx.c_n_threads ~last:ctx.c_last ~enabled:ctx.c_enabled
  in
  if !forced || !patience = 0 then List.hd order
  else begin
    let withheld, rest = List.partition pending_second order in
    match rest with
    | [] ->
        (* every enabled thread is withheld: release the most recently
           created one, keeping earlier ones (usually the forced party)
           parked *)
        List.fold_left max (List.hd withheld) withheld
    | t :: _ ->
        if withheld <> [] then decr patience;
        if withheld <> [] && pending_matches t target.first then
          forced := true;
        t
  end

(* --- the STRATEGY instance --------------------------------------------- *)

(* [Forcing (target, rest)]: the candidate forced by the current run and
   those still to force, so the stage names a target by construction. *)
type stage = Profiling of int | Forcing of iroot * iroot list | Finished_

let strategy ?(promote = fun _ -> false) ?(profile_runs = 10) ~seed () :
    Strategy.t =
  (module struct
    let technique = "MapleAlg"
    let tracks_distinct = false

    (* the campaign length is intrinsic: [profile_runs] profiling runs plus
       one active run per candidate, regardless of the schedule limit *)
    let respects_limit = false

    type state = {
      mutable stage : stage;
      mutable observed : Iroot_set.t;
      mutable adjacent : Iroot_set.t;
      (* per-run scheduler state *)
      mutable profile : profile;
      mutable rng : Random.State.t;
      a_forced : bool ref;
      a_patience : int ref;
      mutable started : bool;
    }

    let init () =
      {
        stage = (if profile_runs <= 0 then Finished_ else Profiling 0);
        observed = Iroot_set.empty;
        adjacent = Iroot_set.empty;
        profile = new_profile ();
        rng = Random.State.make [| 0 |];
        a_forced = ref false;
        a_patience = ref 400;
        started = false;
      }

    let finished =
      Strategy.Finished
        {
          (* every candidate was attempted: Maple's heuristic termination *)
          f_complete = true;
          f_bound = None;
          f_bound_complete = false;
          f_new_at_bound = false;
        }

    let next_phase st =
      if st.started then finished
      else begin
        st.started <- true;
        match st.stage with
        | Finished_ -> finished
        | Profiling _ | Forcing _ ->
            Strategy.Phase { ph_bound = None; ph_new_at_bound = false }
      end

    (* The driver begins no run once [on_terminal] has ended the phase, so
       [Finished_] sees none; were one to run, it would be plain
       round-robin (see [choose]) and change nothing. *)
    let begin_run st =
      match st.stage with
      | Profiling i ->
          st.profile <- new_profile ();
          st.rng <- Random.State.make [| seed; i; 0x3aF |]
      | Forcing _ ->
          st.a_forced := false;
          st.a_patience := 400
      | Finished_ -> ()

    let listener st =
      match st.stage with
      | Profiling _ -> Some (observe_run_pairs st.profile)
      | Forcing _ | Finished_ -> None

    let choose st ctx =
      match st.stage with
      | Profiling _ -> profile_choose st.rng ctx
      | Forcing (c, _) ->
          active_choose ~forced:st.a_forced ~patience:st.a_patience c ctx
      | Finished_ -> Replay.round_robin ctx

    let on_terminal st (res : Runtime.result) =
      let bug =
        match res.Runtime.r_outcome with
        | Outcome.Bug _ -> true
        | Outcome.Ok | Outcome.Step_limit -> false
      in
      (match st.stage with
      | Profiling i ->
          st.observed <- Iroot_set.union st.observed st.profile.observed;
          st.adjacent <- Iroot_set.union st.adjacent st.profile.adjacent;
          if bug then st.stage <- Finished_
          else if i + 1 < profile_runs then st.stage <- Profiling (i + 1)
          else begin
            match
              candidates ~promote ~observed:st.observed ~adjacent:st.adjacent
            with
            | [] -> st.stage <- Finished_
            | c :: cs -> st.stage <- Forcing (c, cs)
          end
      | Forcing (_, rest) -> (
          match rest with
          | c :: cs when not bug -> st.stage <- Forcing (c, cs)
          | _ -> st.stage <- Finished_)
      | Finished_ -> ());
      {
        Strategy.v_counts = true;
        v_phase_over =
          (match st.stage with Finished_ -> true | _ -> false);
        v_cut = false;
      }
  end)

let explore ?promote ?max_steps ?(profile_runs = 10) ?deadline ~seed program =
  Driver.explore ?promote ?max_steps ?deadline ~limit:max_int
    (strategy ?promote ~profile_runs ~seed ())
    program
