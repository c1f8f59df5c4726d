module Json = Sct_store.Json

open Sct_core
module Stats = Sct_explore.Stats
module Techniques = Sct_explore.Techniques

exception Error of string

let error fmt =
  Printf.ksprintf (fun s -> raise (Error ("Sct_store.Codec: " ^ s))) fmt

let version = 1

(* --- generic helpers --- *)

let get_int = function
  | Json.Int i -> i
  | j -> error "expected an integer, got %s" (Json.to_string j)

let get_bool = function
  | Json.Bool b -> b
  | j -> error "expected a boolean, got %s" (Json.to_string j)

let get_string = function
  | Json.Str s -> s
  | j -> error "expected a string, got %s" (Json.to_string j)

let get_arr = function
  | Json.Arr l -> l
  | j -> error "expected an array, got %s" (Json.to_string j)

let get_list f j = List.map f (get_arr j)

let field obj name =
  match Json.member name obj with
  | Some v -> v
  | None -> error "missing field %S in %s" name (Json.to_string obj)

(* Counts, bounds and thread ids are never negative; a negative one can only
   come from a damaged or edited record, and would mis-count the tables. *)
let get_nat name j =
  let i = get_int j in
  if i < 0 then error "negative %s %d" name i;
  i

let nat_field obj name = get_nat name (field obj name)

let opt_field obj name f =
  match Json.member name obj with
  | None | Some Json.Null -> None
  | Some v -> Some (f v)

let opt_to_json f = function None -> Json.Null | Some x -> f x

(* --- schedules --- *)

(* Thread ids fill most journal bytes; with one shared node per small id,
   encoding one costs a list cell and no [Json.Int]. *)
let small_ints = Array.init 256 (fun i -> Json.Int i)
let tid_to_json t =
  if 0 <= t && t < 256 then Array.unsafe_get small_ints t else Json.Int t

let schedule_to_json s = Json.Arr (List.map tid_to_json (Schedule.to_list s))

let schedule_of_json j = Schedule.of_list (get_list (get_nat "thread id") j)

let schedule_line s =
  String.concat "," (List.map string_of_int (Schedule.to_list s))

(* --- bugs --- *)

let bug_to_json (b : Outcome.bug) =
  let tagged kind msg = Json.Obj [ ("kind", Json.Str kind); ("msg", Json.Str msg) ] in
  match b with
  | Outcome.Assertion_failure m -> tagged "assert" m
  | Outcome.Lock_error m -> tagged "lock" m
  | Outcome.Memory_error m -> tagged "memory" m
  | Outcome.Uncaught_exn m -> tagged "exn" m
  | Outcome.Deadlock tids ->
      Json.Obj
        [
          ("kind", Json.Str "deadlock");
          ("tids", Json.Arr (List.map (fun t -> Json.Int t) tids));
        ]

let bug_of_json j =
  match get_string (field j "kind") with
  | "assert" -> Outcome.Assertion_failure (get_string (field j "msg"))
  | "lock" -> Outcome.Lock_error (get_string (field j "msg"))
  | "memory" -> Outcome.Memory_error (get_string (field j "msg"))
  | "exn" -> Outcome.Uncaught_exn (get_string (field j "msg"))
  | "deadlock" -> Outcome.Deadlock (get_list (get_nat "tids") (field j "tids"))
  | k -> error "unknown bug kind %S" k

(* --- bug witnesses --- *)

let witness_to_json (w : Stats.bug_witness) =
  Json.Obj
    [
      ("bug", bug_to_json w.Stats.w_bug);
      ("by", Json.Int w.Stats.w_by);
      ("schedule", schedule_to_json w.Stats.w_schedule);
      ("pc", Json.Int w.Stats.w_pc);
      ("dc", Json.Int w.Stats.w_dc);
    ]

let witness_of_json j =
  {
    Stats.w_bug = bug_of_json (field j "bug");
    w_by = nat_field j "by";
    w_schedule = schedule_of_json (field j "schedule");
    w_pc = nat_field j "pc";
    w_dc = nat_field j "dc";
  }

(* --- technique options --- *)

(* The JSON tree has no float constructor (see json.mli); the optional
   wall-clock limit is carried as an OCaml hex-float string ("%h"), which
   [float_of_string] reads back exactly. The field is emitted only when
   set, so version-1 journals and fingerprints written before the field
   existed remain byte-identical. *)
let time_limit_to_json s = Json.Str (Printf.sprintf "%h" s)

let time_limit_of_json = function
  | Json.Str s -> (
      match float_of_string_opt s with
      | Some f -> f
      | None -> error "malformed time_limit %S" s)
  | _ -> error "malformed time_limit"

let options_to_json (o : Techniques.options) =
  Json.Obj
    ([
       ("limit", Json.Int o.Techniques.limit);
       ("seed", Json.Int o.Techniques.seed);
       ("max_steps", Json.Int o.Techniques.max_steps);
       ("race_runs", Json.Int o.Techniques.race_runs);
       ("pct_change_points", Json.Int o.Techniques.pct_change_points);
       ("maple_profile_runs", Json.Int o.Techniques.maple_profile_runs);
       (* constants of the v1 format: the options they held are gone, but
          older readers require the members *)
       ("jobs", Json.Int 1);
       ("split_depth", Json.Int 3);
     ]
    @ (match o.Techniques.time_limit with
      | None -> []
      | Some s -> [ ("time_limit", time_limit_to_json s) ])
    @ (* emitted only when on, for the same byte-compatibility reason *)
    (if o.Techniques.prefix_batch then [ ("prefix_batch", Json.Bool true) ]
     else [])
    @ (* emitted only when set: POR-free cells keep the pre-POR encoding *)
    (match o.Techniques.por with
    | None -> []
    | Some m -> [ ("por", Json.Str (Sct_explore.Por.mode_name m)) ])
    @ (* emitted only when non-default: cells that never touch the Axes
         bounds keep the pre-axes encoding *)
    (if o.Techniques.fair_bound <> Techniques.default_options.fair_bound then
       [ ("fair_bound", Json.Int o.Techniques.fair_bound) ]
     else [])
    @
    if o.Techniques.length_bound <> Techniques.default_options.length_bound
    then [ ("length_bound", Json.Int o.Techniques.length_bound) ]
    else [])

let options_of_json j =
  (* [jobs] and [split_depth] are required by the v1 format; any integer
     is accepted and ignored *)
  ignore (get_int (field j "jobs"));
  ignore (get_int (field j "split_depth"));
  {
    Techniques.limit = get_int (field j "limit");
    seed = get_int (field j "seed");
    max_steps = get_int (field j "max_steps");
    race_runs = get_int (field j "race_runs");
    pct_change_points = get_int (field j "pct_change_points");
    maple_profile_runs = get_int (field j "maple_profile_runs");
    time_limit = opt_field j "time_limit" time_limit_of_json;
    prefix_batch =
      (match opt_field j "prefix_batch" get_bool with
      | Some b -> b
      | None -> false);
    por =
      opt_field j "por" (fun v ->
          let s = get_string v in
          match Sct_explore.Por.of_mode_name s with
          | Some m -> m
          | None -> error "unknown POR mode %S" s);
    fair_bound =
      (match opt_field j "fair_bound" get_int with
      | Some b -> b
      | None -> Techniques.default_options.fair_bound);
    length_bound =
      (match opt_field j "length_bound" get_int with
      | Some b -> b
      | None -> Techniques.default_options.length_bound);
  }

(* --- campaign slice progress --- *)

type progress = { p_consumed : int; p_slices : int; p_done : bool }

let progress_to_json p =
  Json.Obj
    [
      ("consumed", Json.Int p.p_consumed);
      ("slices", Json.Int p.p_slices);
      ("done", Json.Bool p.p_done);
    ]

let progress_of_json j =
  let p_consumed = get_int (field j "consumed") in
  let p_slices = get_int (field j "slices") in
  let p_done = get_bool (field j "done") in
  if p_consumed < 0 then error "negative consumed budget %d" p_consumed;
  if p_slices < 0 then error "negative slice count %d" p_slices;
  { p_consumed; p_slices; p_done }

(* --- distinct-schedule sets ---
   Nearly every journal byte is a thread id of a distinct schedule, so a
   set goes to and from JSON key by key, with no list of thread ids on
   either side. *)

module Sched_set = Stats.Sched_set

(* The keys are in increasing order, so the encoding is canonical. *)
let distinct_to_json set =
  Json.Arr
    (List.map
       (fun k -> Json.Arr (Sched_set.map_key tid_to_json k))
       (Sched_set.keys set))

(* Only a strictly increasing array re-encodes to its own bytes; any other
   one is damaged, and refusing it costs one key compare per schedule. *)
let distinct_of_json j =
  let buf = Buffer.create 256 in
  let rec add i prev set = function
    | [] -> set
    | s :: l ->
        let k = Sched_set.key_of_map buf (get_nat "thread id") (get_arr s) in
        (match prev with
        | Some p
          when String.compare (p : Sched_set.key :> string) (k :> string) >= 0
          ->
            error "distinct[%d] does not sort strictly after distinct[%d]" i
              (i - 1)
        | _ -> ());
        add (i + 1) (Some k) (Sched_set.add_key k set) l
  in
  add 0 None Sched_set.empty (get_arr j)

(* --- statistics --- *)

let stats_to_json (s : Stats.t) =
  Json.Obj
    ([
      ("technique", Json.Str s.Stats.technique);
      ("bound", opt_to_json (fun i -> Json.Int i) s.Stats.bound);
      ("bound_complete", Json.Bool s.Stats.bound_complete);
      ("to_first_bug", opt_to_json (fun i -> Json.Int i) s.Stats.to_first_bug);
      ("total", Json.Int s.Stats.total);
      ("new_at_bound", Json.Int s.Stats.new_at_bound);
      ("buggy", Json.Int s.Stats.buggy);
      ("complete", Json.Bool s.Stats.complete);
      ("hit_limit", Json.Bool s.Stats.hit_limit);
    ]
    @ (* emitted only when set: deadline-free stats keep the version-1
         byte-identical encoding the resume fingerprints rely on *)
    (if s.Stats.hit_deadline then [ ("hit_deadline", Json.Bool true) ]
     else [])
    @ [
      ("first_bug", opt_to_json witness_to_json s.Stats.first_bug);
      ("n_threads", Json.Int s.Stats.n_threads);
      ("max_enabled", Json.Int s.Stats.max_enabled);
      ("max_sched_points", Json.Int s.Stats.max_sched_points);
      ("executions", Json.Int s.Stats.executions);
    ]
    @ (* emitted only when counted: step-free stats (all-zero records,
         pre-counter journals) keep the version-1 byte encoding *)
    (if s.Stats.steps_executed <> 0 || s.Stats.steps_saved <> 0 then
       [
         ("steps_executed", Json.Int s.Stats.steps_executed);
         ("steps_saved", Json.Int s.Stats.steps_saved);
       ]
     else [])
    @ (* emitted only when nonzero: POR-free stats keep the pre-POR byte
         encoding *)
    (if s.Stats.por_pruned <> 0 then
       [ ("por_pruned", Json.Int s.Stats.por_pruned) ]
     else [])
    @ (* emitted only when nonzero: cut-free stats (every technique except
         fair/length bounding) keep the pre-cut byte encoding *)
    (if s.Stats.cut_runs <> 0 then [ ("cut_runs", Json.Int s.Stats.cut_runs) ]
     else [])
    @ [ ("distinct", opt_to_json distinct_to_json s.Stats.distinct_schedules) ])

let stats_of_json j =
  let nat name = nat_field j name in
  let opt_nat name = opt_field j name (get_nat name) in
  let count name = Option.value ~default:0 (opt_nat name) in
  {
    Stats.technique = get_string (field j "technique");
    bound = opt_nat "bound";
    bound_complete = get_bool (field j "bound_complete");
    to_first_bug = opt_nat "to_first_bug";
    total = nat "total";
    new_at_bound = nat "new_at_bound";
    buggy = nat "buggy";
    complete = get_bool (field j "complete");
    hit_limit = get_bool (field j "hit_limit");
    hit_deadline =
      (match opt_field j "hit_deadline" get_bool with
      | Some b -> b
      | None -> false);
    first_bug = opt_field j "first_bug" witness_of_json;
    n_threads = nat "n_threads";
    max_enabled = nat "max_enabled";
    max_sched_points = nat "max_sched_points";
    executions = nat "executions";
    steps_executed = count "steps_executed";
    steps_saved = count "steps_saved";
    por_pruned = count "por_pruned";
    cut_runs = count "cut_runs";
    distinct_schedules = opt_field j "distinct" distinct_of_json;
  }

(* --- version-tagged string forms --- *)

let check_version j =
  match Json.member "v" j with
  | Some (Json.Int v) when v >= 1 && v <= version -> ()
  | Some (Json.Int v) ->
      error "format version %d is not supported (this build reads up to %d)"
        v version
  | Some _ | None -> error "missing or malformed format-version tag"

let tag kind payload =
  Json.to_string (Json.Obj [ ("v", Json.Int version); (kind, payload) ])

let untag kind s =
  let j =
    try Json.of_string s
    with Json.Parse_error { pos; msg } ->
      error "parse error at offset %d: %s" pos msg
  in
  check_version j;
  field j kind

let encode_schedule s = tag "schedule" (schedule_to_json s)
let decode_schedule s = schedule_of_json (untag "schedule" s)
let encode_bug b = tag "bug" (bug_to_json b)
let decode_bug s = bug_of_json (untag "bug" s)
let encode_witness w = tag "witness" (witness_to_json w)
let decode_witness s = witness_of_json (untag "witness" s)
let encode_options o = tag "options" (options_to_json o)
let decode_options s = options_of_json (untag "options" s)
let encode_stats s = tag "stats" (stats_to_json s)
let decode_stats s = stats_of_json (untag "stats" s)
let encode_progress p = tag "progress" (progress_to_json p)
let decode_progress s = progress_of_json (untag "progress" s)
