open Sct_core

(* The one generic campaign loop. Every technique runs through here (the
   parallel engine runs shards of campaigns, each shard again through
   here); all budget, deadline, statistics and hook logic lives in this
   file only. [explore] is one advance of a fresh session; the campaign
   runner keeps sessions of tree cells alive between budget slices. *)

(* A session is the campaign loop paused between two advances: the
   counters, the strategy state and the continuation that the budget stop
   interrupted all live in this closure. *)
type session =
  max_executions:int option -> deadline:float option -> limit:int -> Stats.t

let start ?(promote = fun _ -> false) ?(max_steps = 100_000)
    ?(record_decisions = false) ?(stop_on_bug = false) ?(count_offset = 0)
    ?(on_schedule = fun _ -> ()) (module S : Strategy.STRATEGY) program :
    session =
  let st = S.init () in
  let limit = ref 0 in
  let max_executions = ref None in
  let deadline = ref None in
  let counted = ref 0 in
  let cuts = ref 0 in
  let phase_counted = ref 0 in
  let buggy = ref 0 in
  let to_first_bug = ref None in
  let first_bug = ref None in
  let executions = ref 0 in
  let steps = ref 0 in
  let n_threads = ref 0 in
  let max_enabled = ref 0 in
  let max_points = ref 0 in
  let hit_limit = ref false in
  let hit_deadline = ref false in
  let complete = ref false in
  let bound = ref None in
  let bound_complete = ref false in
  let new_at_bound = ref 0 in
  let seen = ref (if S.tracks_distinct then Some Stats.Sched_set.empty else None) in
  (* Record the phase bookkeeping when the campaign stops inside a phase
     (budget, deadline, or stop_on_bug): the bound reached is the phase's,
     and the phase's counted schedules are the "new at bound" statistic
     when the phase says so. [bound_complete]/[complete] stay false — the
     phase did not finish. *)
  let stop_in (ph : Strategy.phase) =
    bound := ph.ph_bound;
    if ph.ph_new_at_bound then new_at_bound := !phase_counted
  in
  let finish (f : Strategy.finish) =
    complete := f.f_complete;
    bound := f.f_bound;
    bound_complete := f.f_bound_complete;
    if f.f_new_at_bound then new_at_bound := !phase_counted
  in
  (* Reduced (POR) campaigns budget raw executions, not only counted
     schedules: a reduction that counts few schedules would otherwise
     never spend its budget and climb bound levels through an
     astronomically larger raw tree. Cut executions (fair/length bounding)
     are charged the same way: a cut prefix is not a terminal schedule, but
     a cut-heavy space must not spin without budget progress. *)
  let budget_spent () =
    !counted + !cuts >= !limit
    || match !max_executions with Some m -> !executions >= m | None -> false
  in
  (* Where the next advance continues: the whole campaign before the first
     advance, the interrupted check after a budget stop, nothing once the
     strategy finished or the deadline or [stop_on_bug] stopped it. *)
  let resume = ref None in
  let pause ph k =
    hit_limit := true;
    stop_in ph;
    resume := Some k
  in
  let rec phases () =
    match S.next_phase st with
    | Strategy.Finished f -> finish f
    | Strategy.Phase ph ->
        phase_counted := 0;
        opened ph
  and opened ph =
    if budget_spent () then pause ph (fun () -> opened ph) else runs ph
  and runs ph =
    S.begin_run st;
    (* The strategy's scheduler for this run, taken once: a walk's own
       [choose], so that each decision is one call. *)
    let res =
      Runtime.exec ~promote ?listener:(S.listener st) ~max_steps
        ~record_decisions ~scheduler:(S.choose st) program
    in
    incr executions;
    steps := !steps + res.Runtime.r_steps;
    n_threads := max !n_threads res.Runtime.r_n_threads;
    max_enabled := max !max_enabled res.Runtime.r_max_enabled;
    max_points := max !max_points res.Runtime.r_multi_points;
    let v = S.on_terminal st res in
    if v.Strategy.v_cut then incr cuts;
    if v.Strategy.v_counts then begin
      incr counted;
      incr phase_counted;
      (match !seen with
      | Some set ->
          seen :=
            Some (Stats.Sched_set.add (Schedule.to_list res.r_schedule) set)
      | None -> ());
      on_schedule res;
      match res.Runtime.r_outcome with
      | Outcome.Bug { bug; by } ->
          incr buggy;
          if !to_first_bug = None then begin
            to_first_bug := Some (count_offset + !counted);
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
    ran ph v
  (* The checks after an execution, in order; a budget stop pauses right
     here, so a larger budget re-enters with the same verdict. *)
  and ran ph v =
    if budget_spent () then pause ph (fun () -> ran ph v)
    else if stop_on_bug && !to_first_bug <> None then stop_in ph
    else
      match !deadline with
      | Some dl when Unix.gettimeofday () > dl ->
          hit_deadline := true;
          stop_in ph
      | _ -> if v.Strategy.v_phase_over then phases () else runs ph
  in
  resume := Some phases;
  fun ~max_executions:m ~deadline:d ~limit:l ->
    (match !resume with
    | None -> ()
    | Some k ->
        resume := None;
        limit := if S.respects_limit then l else max_int;
        max_executions := m;
        deadline := d;
        (* a fresh campaign at the larger limit has not stopped yet *)
        hit_limit := false;
        bound := None;
        new_at_bound := 0;
        k ());
    {
      (Stats.base ~technique:S.technique) with
      Stats.bound = !bound;
      bound_complete = !bound_complete;
      to_first_bug = !to_first_bug;
      total = !counted;
      new_at_bound = !new_at_bound;
      buggy = !buggy;
      complete = !complete;
      hit_limit = !hit_limit;
      hit_deadline = !hit_deadline;
      first_bug = !first_bug;
      n_threads = !n_threads;
      max_enabled = !max_enabled;
      max_sched_points = !max_points;
      executions = !executions;
      steps_executed = !steps;
      cut_runs = !cuts;
      distinct_schedules = !seen;
    }

let advance ?max_executions ?deadline (session : session) ~limit =
  session ~max_executions ~deadline ~limit

let explore ?promote ?max_steps ?record_decisions ?stop_on_bug ?count_offset
    ?max_executions ?deadline ?on_schedule ~limit strategy program =
  advance ?max_executions ?deadline ~limit
    (start ?promote ?max_steps ?record_decisions ?stop_on_bug ?count_offset
       ?on_schedule strategy program)

let deadline_of_time_limit = function
  | None -> None
  | Some seconds -> Some (Unix.gettimeofday () +. seconds)
