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

(* --- streaming --- *)

(* An object read member by member. The first occurrence of a name in
   [streamed] goes to its reader and later ones are skipped; every other
   member is kept, in order, as a small tree, so [field] and [opt_field]
   on it see the first occurrence as [List.assoc_opt] does on the tree of
   the whole object. *)
let read_object r streamed =
  let seen = ref [] and small = ref [] in
  Json.iter_object r (fun name r ->
      match List.assoc_opt name streamed with
      | Some read when not (List.mem name !seen) ->
          seen := name :: !seen;
          read r
      | Some _ -> Json.skip_value r
      | None -> small := (name, Json.read_value r) :: !small);
  Json.Obj (List.rev !small)

let streamed j name = function
  | Some v -> v
  | None -> error "missing field %S in %s" name (Json.to_string j)

(* [null] reads as [None], as [opt_field] reads it. *)
let read_opt read r =
  Json.skip_ws r;
  if Json.looking_at r 'n' then begin
    Json.skip_value r;
    None
  end
  else Some (read r)

let read_nat name r =
  let i = Json.read_int r in
  if i < 0 then error "negative %s %d" name i;
  i

(* Every item prints at least one byte, so the buffer has grown past
   [start] exactly when an item precedes. *)
let add_array buf iter add_item x =
  Buffer.add_char buf '[';
  let start = Buffer.length buf in
  iter
    (fun item ->
      if Buffer.length buf > start then Buffer.add_char buf ',';
      add_item buf item)
    x;
  Buffer.add_char buf ']'

(* --- schedules ---
   Thread ids fill most journal bytes, so a schedule goes between its list
   and the text with no tree node per id. *)

let add_schedule buf s = add_array buf List.iter Json.add_int (Schedule.to_list s)

let read_schedule r =
  let tids = ref [] in
  Json.iter_array r (fun r -> tids := read_nat "thread id" r :: !tids);
  Schedule.of_list (List.rev !tids)

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

let add_witness buf (w : Stats.bug_witness) =
  Json.add_member buf '{' "bug";
  Json.add buf (bug_to_json w.Stats.w_bug);
  Json.add_member buf ',' "by";
  Json.add_int buf w.Stats.w_by;
  Json.add_member buf ',' "schedule";
  add_schedule buf w.Stats.w_schedule;
  Json.add_member buf ',' "pc";
  Json.add_int buf w.Stats.w_pc;
  Json.add_member buf ',' "dc";
  Json.add_int buf w.Stats.w_dc;
  Buffer.add_char buf '}'

let read_witness r =
  let schedule = ref None in
  let j =
    read_object r [ ("schedule", fun r -> schedule := Some (read_schedule r)) ]
  in
  {
    Stats.w_bug = bug_of_json (field j "bug");
    w_by = nat_field j "by";
    w_schedule = streamed j "schedule" !schedule;
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

let required_members (o : Techniques.options) =
  [
    ("limit", Json.Int o.Techniques.limit);
    ("seed", Json.Int o.Techniques.seed);
    ("max_steps", Json.Int o.Techniques.max_steps);
    ("race_runs", Json.Int o.Techniques.race_runs);
    ("pct_change_points", Json.Int o.Techniques.pct_change_points);
    ("maple_profile_runs", Json.Int o.Techniques.maple_profile_runs);
  ]

(* Written only when set (the deadline, batching and POR) or off their
   defaults (the two axis bounds), so options that leave them alone keep
   the bytes, and the store keys, they had before the option existed. *)
let optional_members (o : Techniques.options) =
  (match o.Techniques.time_limit with
  | None -> []
  | Some s -> [ ("time_limit", time_limit_to_json s) ])
  @ (if o.Techniques.prefix_batch then [ ("prefix_batch", Json.Bool true) ]
     else [])
  @ (match o.Techniques.por with
    | None -> []
    | Some m -> [ ("por", Json.Str (Sct_explore.Por.mode_name m)) ])
  @ (if o.Techniques.fair_bound <> Techniques.default_options.fair_bound then
       [ ("fair_bound", Json.Int o.Techniques.fair_bound) ]
     else [])
  @
  if o.Techniques.length_bound <> Techniques.default_options.length_bound then
    [ ("length_bound", Json.Int o.Techniques.length_bound) ]
  else []

let options_members o = required_members o @ optional_members o

(* [jobs] and [split_depth] are constants of the v1 format: the options
   they held are gone, but older readers require the members. [jobs] was
   the pool size, so a constant keeps stores equal at every [--jobs]. *)
let options_to_json o =
  Json.Obj
    (required_members o
    @ [ ("jobs", Json.Int 1); ("split_depth", Json.Int 3) ]
    @ optional_members o)

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
   set goes to and from the text key by key and each key thread id by
   thread id, with no list of ids and no tree on either side. *)

module Sched_set = Stats.Sched_set

let add_key buf k = add_array buf Sched_set.iter_key Json.add_int k

(* The keys are in increasing order, so the encoding is canonical. *)
let add_distinct buf set = add_array buf List.iter add_key (Sched_set.keys set)

(* Only a strictly increasing array re-encodes to its own bytes; any other
   one is damaged, and refusing it costs one key compare per schedule. *)
let read_distinct r =
  let buf = Buffer.create 256 in
  let add_tid r = Sched_set.add_tid buf (read_nat "thread id" r) in
  let set = ref Sched_set.empty and prev = ref None and i = ref 0 in
  Json.iter_array r (fun r ->
      Json.iter_array r add_tid;
      let k = Sched_set.key_of_buffer buf in
      (match !prev with
      | Some p
        when String.compare (p : Sched_set.key :> string) (k :> string) >= 0 ->
          error "distinct[%d] does not sort strictly after distinct[%d]" !i
            (!i - 1)
      | _ -> ());
      set := Sched_set.add_key k !set;
      prev := Some k;
      incr i);
  !set

(* --- statistics --- *)

let add_stats buf (s : Stats.t) =
  let int name i =
    Json.add_member buf ',' name;
    Json.add_int buf i
  in
  let bool name b =
    Json.add_member buf ',' name;
    Buffer.add_string buf (if b then "true" else "false")
  in
  let opt name add = function
    | None ->
        Json.add_member buf ',' name;
        Buffer.add_string buf "null"
    | Some x ->
        Json.add_member buf ',' name;
        add buf x
  in
  Json.add_member buf '{' "technique";
  Json.add_string buf s.Stats.technique;
  opt "bound" Json.add_int s.Stats.bound;
  bool "bound_complete" s.Stats.bound_complete;
  opt "to_first_bug" Json.add_int s.Stats.to_first_bug;
  int "total" s.Stats.total;
  int "new_at_bound" s.Stats.new_at_bound;
  int "buggy" s.Stats.buggy;
  bool "complete" s.Stats.complete;
  bool "hit_limit" s.Stats.hit_limit;
  (* emitted only when set: deadline-free stats keep the version-1
     byte-identical encoding the resume fingerprints rely on *)
  if s.Stats.hit_deadline then bool "hit_deadline" true;
  opt "first_bug" add_witness s.Stats.first_bug;
  int "n_threads" s.Stats.n_threads;
  int "max_enabled" s.Stats.max_enabled;
  int "max_sched_points" s.Stats.max_sched_points;
  int "executions" s.Stats.executions;
  (* emitted only when counted: step-free stats (all-zero records,
     pre-counter journals) keep the version-1 byte encoding *)
  if s.Stats.steps_executed <> 0 || s.Stats.steps_saved <> 0 then begin
    int "steps_executed" s.Stats.steps_executed;
    int "steps_saved" s.Stats.steps_saved
  end;
  (* emitted only when nonzero: POR-free stats keep the pre-POR byte
     encoding *)
  if s.Stats.por_pruned <> 0 then int "por_pruned" s.Stats.por_pruned;
  (* emitted only when nonzero: cut-free stats (every technique except
     fair/length bounding) keep the pre-cut byte encoding *)
  if s.Stats.cut_runs <> 0 then int "cut_runs" s.Stats.cut_runs;
  opt "distinct" add_distinct s.Stats.distinct_schedules;
  Buffer.add_char buf '}'

let read_stats r =
  let first_bug = ref None and distinct = ref None in
  let j =
    read_object r
      [
        ("first_bug", fun r -> first_bug := read_opt read_witness r);
        ("distinct", fun r -> distinct := read_opt read_distinct r);
      ]
  in
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
    first_bug = !first_bug;
    n_threads = nat "n_threads";
    max_enabled = nat "max_enabled";
    max_sched_points = nat "max_sched_points";
    executions = nat "executions";
    steps_executed = count "steps_executed";
    steps_saved = count "steps_saved";
    por_pruned = count "por_pruned";
    cut_runs = count "cut_runs";
    distinct_schedules = !distinct;
  }

(* --- version-tagged string forms --- *)

let check_version j =
  match Json.member "v" j with
  | Some (Json.Int v) when v >= 1 && v <= version -> ()
  | Some (Json.Int v) ->
      error "format version %d is not supported (this build reads up to %d)"
        v version
  | Some _ | None -> error "missing or malformed format-version tag"

let tagged kind add x =
  let buf = Buffer.create 256 in
  Json.add_member buf '{' "v";
  Json.add_int buf version;
  Json.add_member buf ',' kind;
  add buf x;
  Buffer.add_char buf '}';
  Buffer.contents buf

let untagged kind read s =
  let payload = ref None in
  try
    let r = Json.reader s in
    let j = read_object r [ (kind, fun r -> payload := Some (read r)) ] in
    Json.finish r;
    check_version j;
    streamed j kind !payload
  with Json.Parse_error { pos; msg } ->
    error "parse error at offset %d: %s" pos msg

(* The small values go through their trees. *)
let add_tree to_json buf x = Json.add buf (to_json x)
let read_tree of_json r = of_json (Json.read_value r)

let encode_schedule s = tagged "schedule" add_schedule s
let decode_schedule s = untagged "schedule" read_schedule s
let encode_bug b = tagged "bug" (add_tree bug_to_json) b
let decode_bug s = untagged "bug" (read_tree bug_of_json) s
let encode_witness w = tagged "witness" add_witness w
let decode_witness s = untagged "witness" read_witness s
let encode_options o = tagged "options" (add_tree options_to_json) o
let decode_options s = untagged "options" (read_tree options_of_json) s
let encode_stats s = tagged "stats" add_stats s
let decode_stats s = untagged "stats" read_stats s
let encode_progress p = tagged "progress" (add_tree progress_to_json) p
let decode_progress s = untagged "progress" (read_tree progress_of_json) s
