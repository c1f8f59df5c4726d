(* The persistent study store (lib/store): codec round-trip laws, version-1
   wire-format stability, artifact content addressing, journal crash
   recovery, and the kill-and-resume guarantee — an interrupted campaign
   resumed on the same store yields exactly the rows of an uninterrupted
   run, re-executing only the missing cells. *)

open Sct_core
module Stats = Sct_explore.Stats
module Techniques = Sct_explore.Techniques
module Json = Sct_store.Json
module Codec = Sct_store.Codec
module Artifact = Sct_store.Artifact
module Db = Sct_store.Db

let stats_t = Alcotest.testable Sct_explore.Stats.pp Sct_explore.Stats.equal

(* --- fresh temporary directories --- *)

let fresh_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    (* temp_file both picks a unique name and reserves it *)
    let f = Filename.temp_file "sct_store_test" (string_of_int !counter) in
    Sys.remove f;
    Sys.mkdir f 0o755;
    f

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let with_dir f =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

(* --- generators --- *)

(* full-range bytes, to exercise JSON string escaping *)
let gen_raw_string =
  QCheck2.Gen.(string_size ~gen:(char_range '\000' '\255') (int_bound 12))

(* Thread ids on both sides of the packed keys' one-byte limit (255) and
   far beyond it. *)
let gen_tid =
  QCheck2.Gen.(
    frequency
      [ (6, int_bound 6); (1, int_range 253 257); (1, oneofl [ 65535; max_int ]) ])

let gen_schedule = QCheck2.Gen.(list_size (int_bound 12) gen_tid)

let gen_bug =
  QCheck2.Gen.(
    let* msg = gen_raw_string in
    oneofl
      [
        Outcome.Assertion_failure msg;
        Outcome.Lock_error msg;
        Outcome.Memory_error msg;
        Outcome.Uncaught_exn msg;
        Outcome.Deadlock [ 1; 2; 3 ];
        Outcome.Deadlock [ 0; 300 ];
        Outcome.Deadlock [];
      ])

let gen_witness =
  QCheck2.Gen.(
    let* w_bug = gen_bug in
    let* w_by = gen_tid in
    let* sched = gen_schedule in
    let* w_pc = int_bound 5 in
    let* w_dc = int_bound 8 in
    return
      { Stats.w_bug; w_by; w_schedule = Schedule.of_list sched; w_pc; w_dc })

let gen_options =
  QCheck2.Gen.(
    let* limit = int_range 1 20_000 in
    let* seed = int_bound 1000 in
    let* max_steps = int_range 1 200_000 in
    let* race_runs = int_range 1 20 in
    let* pct_change_points = int_bound 5 in
    let* maple_profile_runs = int_range 1 20 in
    (* dyadic rationals: exactly representable, so [=] on the decoded
       record is meaningful *)
    let* time_limit =
      option (map (fun i -> float_of_int i /. 8.) (int_range 0 80_000))
    in
    let* prefix_batch = bool in
    let* por =
      option
        (oneofl
           Sct_explore.Por.[ Sleep; Dpor; Dpor_sleep ])
    in
    (* defaults included so the emit-only-when-non-default encoding is
       exercised in both directions *)
    let* fair_bound = int_range 1 10 in
    let* length_bound = int_range 1 500 in
    return
      {
        Techniques.limit;
        seed;
        max_steps;
        race_runs;
        pct_change_points;
        maple_profile_runs;
        time_limit;
        prefix_batch;
        por;
        fair_bound;
        length_bound;
      })

(* Zero often enough that the members emitted only when nonzero are both
   emitted and left out. *)
let gen_count bound = QCheck2.Gen.(frequency [ (1, return 0); (3, int_bound bound) ])

let gen_stats =
  QCheck2.Gen.(
    let* technique = oneofl [ "IPB"; "IDB"; "DFS"; "Rand"; "MapleAlg" ] in
    let* bound = option (int_bound 4) in
    let* bound_complete = bool in
    let* to_first_bug = option (int_bound 100) in
    let* first_bug = option gen_witness in
    let* total = int_bound 10_000 in
    let* new_at_bound = int_bound 500 in
    let* buggy = int_bound 50 in
    let* complete = bool in
    let* hit_limit = bool in
    let* hit_deadline = bool in
    let* n_threads = int_bound 8 in
    let* max_enabled = int_bound 8 in
    let* max_sched_points = int_bound 100 in
    let* executions = int_bound 10_000 in
    let* steps_executed = gen_count 500_000 in
    let* steps_saved = gen_count 500_000 in
    let* por_pruned = gen_count 10_000 in
    let* cut_runs = gen_count 100 in
    let* distinct = option (list_size (int_bound 6) gen_schedule) in
    return
      {
        (Stats.base ~technique) with
        Stats.bound;
        bound_complete;
        to_first_bug;
        first_bug;
        total;
        new_at_bound;
        buggy;
        complete;
        hit_limit;
        hit_deadline;
        n_threads;
        max_enabled;
        max_sched_points;
        executions;
        steps_executed;
        steps_saved;
        por_pruned;
        cut_runs;
        distinct_schedules = Option.map Stats.Sched_set.of_list distinct;
      })

(* --- codec round-trip laws: decode ∘ encode = id --- *)

let prop_roundtrip_schedule =
  QCheck2.Test.make ~name:"Codec: schedule round-trips" ~count:300
    gen_schedule (fun s ->
      let s = Schedule.of_list s in
      Schedule.equal s (Codec.decode_schedule (Codec.encode_schedule s)))

let prop_roundtrip_bug =
  QCheck2.Test.make ~name:"Codec: bug round-trips" ~count:300 gen_bug
    (fun b -> Outcome.bug_equal b (Codec.decode_bug (Codec.encode_bug b)))

let prop_roundtrip_witness =
  QCheck2.Test.make ~name:"Codec: witness round-trips" ~count:300 gen_witness
    (fun w ->
      Stats.equal_witness w (Codec.decode_witness (Codec.encode_witness w)))

let prop_roundtrip_options =
  QCheck2.Test.make ~name:"Codec: options round-trip" ~count:300 gen_options
    (fun o -> Codec.decode_options (Codec.encode_options o) = o)

let prop_roundtrip_stats =
  QCheck2.Test.make ~name:"Codec: stats round-trip" ~count:300 gen_stats
    (fun s -> Stats.equal s (Codec.decode_stats (Codec.encode_stats s)))

let gen_progress =
  QCheck2.Gen.(
    let* p_consumed = int_bound 500 in
    let* p_slices = int_range 1 20 in
    let* p_done = bool in
    return { Codec.p_consumed; p_slices; p_done })

let prop_roundtrip_progress =
  QCheck2.Test.make ~name:"Codec: campaign progress round-trips" ~count:300
    gen_progress (fun p ->
      Codec.decode_progress (Codec.encode_progress p) = p)

(* --- version-1 wire format stability ---
   These strings are the on-disk format; if one of these tests fails, the
   format changed and [Codec.version] must be bumped with a migration. *)

let fixture_schedule = {|{"v":1,"schedule":[0,0,1,2]}|}

let fixture_witness =
  {|{"v":1,"witness":{"bug":{"kind":"assert","msg":"x=y"},"by":2,"schedule":[0,1,2],"pc":1,"dc":3}}|}

let fixture_options =
  {|{"v":1,"options":{"limit":10000,"seed":0,"max_steps":100000,"race_runs":10,"pct_change_points":2,"maple_profile_runs":10,"jobs":1,"split_depth":3}}|}

let fixture_stats =
  {|{"v":1,"stats":{"technique":"IPB","bound":1,"bound_complete":true,"to_first_bug":5,"total":10,"new_at_bound":4,"buggy":2,"complete":false,"hit_limit":true,"first_bug":null,"n_threads":3,"max_enabled":2,"max_sched_points":7,"executions":12,"distinct":[[0,1],[1,0]]}}|}

let fixture_stats_value =
  {
    (Stats.base ~technique:"IPB") with
    Stats.bound = Some 1;
    bound_complete = true;
    to_first_bug = Some 5;
    total = 10;
    new_at_bound = 4;
    buggy = 2;
    complete = false;
    hit_limit = true;
    n_threads = 3;
    max_enabled = 2;
    max_sched_points = 7;
    executions = 12;
    distinct_schedules = Some (Stats.Sched_set.of_list [ [ 0; 1 ]; [ 1; 0 ] ]);
  }

(* v1 extension fields: absent on the pinned fixtures above (so old
   journals keep decoding), emitted only when set *)
let fixture_options_deadline =
  {|{"v":1,"options":{"limit":10000,"seed":0,"max_steps":100000,"race_runs":10,"pct_change_points":2,"maple_profile_runs":10,"jobs":1,"split_depth":3,"time_limit":"0x1.9p+5"}}|}

let fixture_options_deadline_value =
  { Techniques.default_options with Techniques.time_limit = Some 50. }

let fixture_stats_deadline =
  {|{"v":1,"stats":{"technique":"Rand","bound":null,"bound_complete":false,"to_first_bug":null,"total":3,"new_at_bound":0,"buggy":0,"complete":false,"hit_limit":false,"hit_deadline":true,"first_bug":null,"n_threads":0,"max_enabled":0,"max_sched_points":0,"executions":3,"distinct":null}}|}

let fixture_stats_deadline_value =
  {
    (Stats.base ~technique:"Rand") with
    Stats.total = 3;
    executions = 3;
    hit_deadline = true;
  }

let fixture_options_prefix_batch =
  {|{"v":1,"options":{"limit":10000,"seed":0,"max_steps":100000,"race_runs":10,"pct_change_points":2,"maple_profile_runs":10,"jobs":1,"split_depth":3,"prefix_batch":true}}|}

let fixture_options_prefix_batch_value =
  { Techniques.default_options with Techniques.prefix_batch = true }

let fixture_stats_steps =
  {|{"v":1,"stats":{"technique":"DFS","bound":null,"bound_complete":false,"to_first_bug":null,"total":6,"new_at_bound":0,"buggy":0,"complete":true,"hit_limit":false,"first_bug":null,"n_threads":2,"max_enabled":2,"max_sched_points":5,"executions":6,"steps_executed":31,"steps_saved":17,"distinct":null}}|}

let fixture_stats_steps_value =
  {
    (Stats.base ~technique:"DFS") with
    Stats.total = 6;
    complete = true;
    n_threads = 2;
    max_enabled = 2;
    max_sched_points = 5;
    executions = 6;
    steps_executed = 31;
    steps_saved = 17;
  }

let fixture_options_por =
  {|{"v":1,"options":{"limit":10000,"seed":0,"max_steps":100000,"race_runs":10,"pct_change_points":2,"maple_profile_runs":10,"jobs":1,"split_depth":3,"por":"dpor+sleep"}}|}

let fixture_options_por_value =
  { Techniques.default_options with Techniques.por = Some Sct_explore.Por.Dpor_sleep }

let fixture_stats_por =
  {|{"v":1,"stats":{"technique":"IPB","bound":1,"bound_complete":true,"to_first_bug":null,"total":9,"new_at_bound":3,"buggy":0,"complete":true,"hit_limit":false,"first_bug":null,"n_threads":3,"max_enabled":2,"max_sched_points":7,"executions":12,"por_pruned":3,"distinct":null}}|}

let fixture_stats_por_value =
  {
    (Stats.base ~technique:"IPB") with
    Stats.bound = Some 1;
    bound_complete = true;
    total = 9;
    new_at_bound = 3;
    complete = true;
    n_threads = 3;
    max_enabled = 2;
    max_sched_points = 7;
    executions = 12;
    por_pruned = 3;
  }

let test_fixture_stability () =
  Alcotest.(check (list int))
    "schedule fixture decodes" [ 0; 0; 1; 2 ]
    (Schedule.to_list (Codec.decode_schedule fixture_schedule));
  Alcotest.(check string)
    "schedule fixture re-encodes byte-identically" fixture_schedule
    (Codec.encode_schedule (Schedule.of_list [ 0; 0; 1; 2 ]));
  let w = Codec.decode_witness fixture_witness in
  Alcotest.(check bool)
    "witness fixture decodes" true
    (Stats.equal_witness w
       {
         Stats.w_bug = Outcome.Assertion_failure "x=y";
         w_by = 2;
         w_schedule = Schedule.of_list [ 0; 1; 2 ];
         w_pc = 1;
         w_dc = 3;
       });
  Alcotest.(check string)
    "witness fixture re-encodes byte-identically" fixture_witness
    (Codec.encode_witness w);
  Alcotest.(check bool)
    "options fixture decodes to the defaults" true
    (Codec.decode_options fixture_options = Techniques.default_options);
  Alcotest.(check string)
    "options fixture re-encodes byte-identically" fixture_options
    (Codec.encode_options Techniques.default_options);
  Alcotest.(check stats_t)
    "stats fixture decodes" fixture_stats_value
    (Codec.decode_stats fixture_stats);
  Alcotest.(check string)
    "stats fixture re-encodes byte-identically" fixture_stats
    (Codec.encode_stats fixture_stats_value);
  Alcotest.(check bool)
    "time-limit options fixture decodes" true
    (Codec.decode_options fixture_options_deadline
    = fixture_options_deadline_value);
  Alcotest.(check string)
    "time-limit options fixture re-encodes byte-identically"
    fixture_options_deadline
    (Codec.encode_options fixture_options_deadline_value);
  Alcotest.(check stats_t)
    "deadline stats fixture decodes" fixture_stats_deadline_value
    (Codec.decode_stats fixture_stats_deadline);
  Alcotest.(check string)
    "deadline stats fixture re-encodes byte-identically"
    fixture_stats_deadline
    (Codec.encode_stats fixture_stats_deadline_value);
  Alcotest.(check bool)
    "prefix-batch options fixture decodes" true
    (Codec.decode_options fixture_options_prefix_batch
    = fixture_options_prefix_batch_value);
  Alcotest.(check string)
    "prefix-batch options fixture re-encodes byte-identically"
    fixture_options_prefix_batch
    (Codec.encode_options fixture_options_prefix_batch_value);
  Alcotest.(check stats_t)
    "step-counter stats fixture decodes" fixture_stats_steps_value
    (Codec.decode_stats fixture_stats_steps);
  Alcotest.(check string)
    "step-counter stats fixture re-encodes byte-identically"
    fixture_stats_steps
    (Codec.encode_stats fixture_stats_steps_value);
  Alcotest.(check bool)
    "por options fixture decodes" true
    (Codec.decode_options fixture_options_por = fixture_options_por_value);
  Alcotest.(check string)
    "por options fixture re-encodes byte-identically" fixture_options_por
    (Codec.encode_options fixture_options_por_value);
  Alcotest.(check stats_t)
    "por stats fixture decodes" fixture_stats_por_value
    (Codec.decode_stats fixture_stats_por);
  Alcotest.(check string)
    "por stats fixture re-encodes byte-identically" fixture_stats_por
    (Codec.encode_stats fixture_stats_por_value)

let expect_codec_error name f =
  match f () with
  | _ -> Alcotest.fail (name ^ ": expected Codec.Error")
  | exception Codec.Error _ -> ()

let fixture_progress = {|{"v":1,"progress":{"consumed":20,"slices":2,"done":false}}|}

let test_progress_fixture_stability () =
  let p = Codec.decode_progress fixture_progress in
  Alcotest.(check bool)
    "progress fixture decodes" true
    (p = { Codec.p_consumed = 20; p_slices = 2; p_done = false });
  Alcotest.(check string)
    "progress fixture re-encodes byte-identically" fixture_progress
    (Codec.encode_progress p)

let test_version_gate () =
  expect_codec_error "newer version" (fun () ->
      Codec.decode_schedule {|{"v":2,"schedule":[0]}|});
  expect_codec_error "missing tag" (fun () ->
      Codec.decode_schedule {|{"schedule":[0]}|});
  expect_codec_error "malformed json" (fun () ->
      Codec.decode_stats {|{"v":1,"stats":|});
  expect_codec_error "negative tid" (fun () ->
      Codec.decode_schedule {|{"v":1,"schedule":[-1]}|});
  expect_codec_error "unknown por mode" (fun () ->
      Codec.decode_options
        {|{"v":1,"options":{"limit":10000,"seed":0,"max_steps":100000,"race_runs":10,"pct_change_points":2,"maple_profile_runs":10,"jobs":1,"split_depth":3,"por":"bogus"}}|})

(* --- negative values are damage, not data --- *)

let fixture_stats_negative =
  {|{"v":1,"stats":{"technique":"IPB","bound":1,"bound_complete":true,"to_first_bug":5,"total":-3,"new_at_bound":4,"buggy":-1,"complete":false,"hit_limit":true,"first_bug":null,"n_threads":3,"max_enabled":2,"max_sched_points":7,"executions":-7,"distinct":[[0,1],[1,0]]}}|}

(* [f] raises [Codec.Error] naming one of [fields] as negative. *)
let expect_negative fields f =
  match f () with
  | _ -> Alcotest.fail (String.concat "/" fields ^ ": expected Codec.Error")
  | exception Codec.Error msg ->
      Alcotest.(check bool)
        (Printf.sprintf "%S names a negative field" msg)
        true
        (List.exists
           (fun field -> Astring_contains.contains msg ("negative " ^ field ^ " "))
           fields)

(* [fixture] with the value of [field], at any depth, replaced by [v] *)
let with_field fixture field v =
  let rec go = function
    | Json.Obj l ->
        Json.Obj
          (List.map (fun (k, x) -> (k, if k = field then v else go x)) l)
    | Json.Arr l -> Json.Arr (List.map go l)
    | x -> x
  in
  Json.to_string (go (Json.of_string fixture))

let fixture_stats_full =
  {|{"v":1,"stats":{"technique":"IPB","bound":1,"bound_complete":true,"to_first_bug":0,"total":10,"new_at_bound":4,"buggy":2,"complete":false,"hit_limit":true,"first_bug":{"bug":{"kind":"deadlock","tids":[1,2]},"by":2,"schedule":[0,1,2],"pc":1,"dc":3},"n_threads":3,"max_enabled":2,"max_sched_points":7,"executions":12,"steps_executed":31,"steps_saved":17,"por_pruned":3,"cut_runs":1,"distinct":[[0,1],[1,0]]}}|}

let test_negative_stats_rejected () =
  (* zero stays legal, [to_first_bug] included *)
  let (_ : Stats.t) = Codec.decode_stats fixture_stats_full in
  expect_negative [ "total"; "buggy"; "executions" ] (fun () ->
      Codec.decode_stats fixture_stats_negative);
  List.iter
    (fun field ->
      expect_negative [ field ] (fun () ->
          Codec.decode_stats
            (with_field fixture_stats_full field (Json.Int (-1)))))
    [
      "bound"; "to_first_bug"; "total"; "new_at_bound"; "buggy"; "n_threads";
      "max_enabled"; "max_sched_points"; "executions"; "steps_executed";
      "steps_saved"; "por_pruned"; "cut_runs"; "by"; "pc"; "dc";
    ];
  expect_negative [ "tids" ] (fun () ->
      Codec.decode_stats
        (with_field fixture_stats_full "tids" (Json.Arr [ Json.Int (-2) ])))

(* Every integer a decoded record carries. *)
let stats_ints (s : Stats.t) =
  let opt = Option.to_list in
  [
    s.Stats.total; s.Stats.new_at_bound; s.Stats.buggy; s.Stats.n_threads;
    s.Stats.max_enabled; s.Stats.max_sched_points; s.Stats.executions;
    s.Stats.steps_executed; s.Stats.steps_saved; s.Stats.por_pruned;
    s.Stats.cut_runs;
  ]
  @ opt s.Stats.bound @ opt s.Stats.to_first_bug
  @ (match s.Stats.first_bug with
    | None -> []
    | Some w ->
        [ w.Stats.w_by; w.Stats.w_pc; w.Stats.w_dc ]
        @ Schedule.to_list w.Stats.w_schedule
        @ (match w.Stats.w_bug with Outcome.Deadlock tids -> tids | _ -> []))
  @ List.concat
      (match s.Stats.distinct_schedules with
      | None -> []
      | Some set -> Stats.Sched_set.elements set)

(* --- byte mutations --- *)

(* Bytes that steer a JSON scanner, plus any byte at all. *)
let gen_json_byte =
  QCheck2.Gen.(
    oneof
      [
        oneofl
          [
            '"'; '\\'; ','; ':'; '['; ']'; '{'; '}'; '-'; '0'; '1'; '9'; 'e';
            '.'; 'u'; '_'; 'n'; 't'; 'f'; 'a'; 'F'; ' '; '\n'; '\000';
          ];
        char;
      ])

type mutation =
  | Truncate of int
  | Replace of int * char
  | Insert of int * char
  | Delete of int

let gen_mutation =
  QCheck2.Gen.(
    let* k = nat in
    let* c = gen_json_byte in
    oneofl [ Truncate k; Replace (k, c); Insert (k, c); Delete k ])

let mutate s m =
  let n = String.length s in
  match m with
  | Truncate k -> String.sub s 0 (k mod (n + 1))
  | Replace (k, c) when n > 0 ->
      String.mapi (fun i x -> if i = k mod n then c else x) s
  | Insert (k, c) ->
      let k = k mod (n + 1) in
      String.sub s 0 k ^ String.make 1 c ^ String.sub s k (n - k)
  | Delete k when n > 0 ->
      let k = k mod n in
      String.sub s 0 k ^ String.sub s (k + 1) (n - k - 1)
  | Replace _ | Delete _ -> s

let gen_mutated base =
  QCheck2.Gen.(
    let* s = base in
    let* ms = list_size (int_range 1 3) gen_mutation in
    return (List.fold_left mutate s ms))

let prop_mutated_stats_nonnegative =
  QCheck2.Test.make
    ~name:"Codec: a mutated stats record is refused or non-negative"
    ~count:1000 ~print:String.escaped
    (gen_mutated (QCheck2.Gen.map Codec.encode_stats gen_stats))
    (fun s ->
      match Codec.decode_stats s with
      | exception Codec.Error _ -> true
      | st -> List.for_all (fun i -> i >= 0) (stats_ints st))

(* --- the Json scanner and printer ---
   [Json_reference] is the scanner and printer of the version-1 store
   format before they were rewritten to allocate nothing per byte, kept
   verbatim. The rewrite must print the same bytes and accept, refuse and
   position errors exactly as it does, except that a [\u] escape now takes
   exactly four hex digits. *)

let rec to_ref = function
  | Json.Null -> Json_reference.Null
  | Json.Bool b -> Json_reference.Bool b
  | Json.Int i -> Json_reference.Int i
  | Json.Str s -> Json_reference.Str s
  | Json.Arr l -> Json_reference.Arr (List.map to_ref l)
  | Json.Obj l -> Json_reference.Obj (List.map (fun (k, v) -> (k, to_ref v)) l)

let rec of_ref = function
  | Json_reference.Null -> Json.Null
  | Json_reference.Bool b -> Json.Bool b
  | Json_reference.Int i -> Json.Int i
  | Json_reference.Str s -> Json.Str s
  | Json_reference.Arr l -> Json.Arr (List.map of_ref l)
  | Json_reference.Obj l -> Json.Obj (List.map (fun (k, v) -> (k, of_ref v)) l)

let gen_json_int =
  QCheck2.Gen.(
    oneof
      [
        int_range 0 9;
        int_range (-9) (-1);
        oneofl
          [
            max_int; min_int; 10; -10; 999_999_999_999_999_999;
            -999_999_999_999_999_999; 1_000_000_000_000_000_000;
          ];
        int;
      ])

let gen_json_string =
  QCheck2.Gen.(
    oneof
      [
        gen_raw_string;
        string_size
          ~gen:
            (oneofl
               [
                 '"'; '\\'; '/'; '\n'; '\r'; '\t'; '\b'; '\012'; '\000';
                 '\031'; '\127'; '\195'; '\169'; '\255'; 'u'; 'a'; ' ';
               ])
          (int_bound 8);
      ])

let gen_json =
  QCheck2.Gen.(
    sized_size (int_bound 12)
    @@ fix (fun self n ->
           let leaf =
             oneof
               [
                 return Json.Null;
                 map (fun b -> Json.Bool b) bool;
                 map (fun i -> Json.Int i) gen_json_int;
                 map (fun s -> Json.Str s) gen_json_string;
               ]
           in
           if n = 0 then leaf
           else
             frequency
               [
                 (2, leaf);
                 ( 1,
                   map
                     (fun l -> Json.Arr (List.map (fun i -> Json.Int i) l))
                     (list_size (int_bound 8) gen_json_int) );
                 (1, map (fun l -> Json.Arr l) (list_size (int_bound 4) (self (n / 2))));
                 ( 1,
                   map
                     (fun l -> Json.Obj l)
                     (list_size (int_bound 4) (pair gen_json_string (self (n / 2))))
                 );
               ]))

let prop_print_matches_reference =
  QCheck2.Test.make ~name:"Json.to_string prints the reference's bytes"
    ~count:2000 ~print:Json.to_string gen_json (fun v ->
      Json.to_string v = Json_reference.to_string (to_ref v))

let all_fixtures =
  [
    fixture_schedule; fixture_witness; fixture_options; fixture_stats;
    fixture_options_deadline; fixture_stats_deadline;
    fixture_options_prefix_batch; fixture_stats_steps; fixture_options_por;
    fixture_stats_por; fixture_progress; fixture_stats_full;
  ]

let scan f s =
  match f s with
  | v -> Ok v
  | exception Json.Parse_error { pos; msg } -> Error (pos, msg)

let scan_ref s =
  match Json_reference.of_string s with
  | v -> Ok (of_ref v)
  | exception Json_reference.Parse_error { pos; msg } -> Error (pos, msg)

(* The one intended divergence: the reference read a [\u] escape through
   [int_of_string_opt "0x...."], which also accepts ['_'] after the first
   digit. *)
let lax_u_escape s pos =
  pos + 4 < String.length s
  && s.[pos] = 'u'
  && String.contains (String.sub s (pos + 1) 4) '_'
  && int_of_string_opt ("0x" ^ String.sub s (pos + 1) 4) <> None

let prop_scan_matches_reference =
  QCheck2.Test.make
    ~name:"Json.of_string accepts, refuses and positions like the reference"
    ~count:3000 ~print:String.escaped
    QCheck2.Gen.(
      let base =
        oneof [ map Json.to_string gen_json; oneofl all_fixtures ]
      in
      oneof [ base; gen_mutated base ])
    (fun s ->
      let ours = scan Json.of_string s in
      ours = scan_ref s
      ||
      match ours with
      | Error (pos, "bad \\u escape") -> lax_u_escape s pos
      | _ -> false)

let test_json_errors () =
  let check_error input (pos, msg) =
    match Json.of_string input with
    | _ -> Alcotest.failf "%S parsed" input
    | exception Json.Parse_error e ->
        Alcotest.(check (pair int string))
          (Printf.sprintf "error of %S" input)
          (pos, msg) (e.pos, e.msg)
  in
  Alcotest.(check bool)
    "four hex digits decode to UTF-8" true
    (Json.of_string {|"\u0041\u00e9\uffff"|} = Json.Str "A\xc3\xa9\xef\xbf\xbf");
  check_error {|"\u1_23"|} (2, "bad \\u escape");
  check_error {|"\u_123"|} (2, "bad \\u escape");
  check_error {|"\u12g4"|} (2, "bad \\u escape");
  check_error {|"\u12|} (2, "truncated \\u escape");
  check_error {|[1,2|} (4, "expected ',' or ']'");
  check_error {|{"a":1,}|} (7, "expected '\"'");
  check_error {|[1.5]|} (2, "floats are not supported");
  check_error {|[-]|} (1, "bad number");
  check_error {|4611686018427387904|} (0, "bad number");
  check_error {|nul|} (0, "expected null");
  check_error {|"ab|} (3, "unterminated string");
  check_error {|[] x|} (3, "trailing garbage");
  Alcotest.(check bool)
    "the integer range is OCaml's" true
    (Json.of_string "[4611686018427387903,-4611686018427387904,-0,007]"
    = Json.Arr [ Json.Int max_int; Json.Int min_int; Json.Int 0; Json.Int 7 ])

(* Minor words per input byte of [f] on [s]: deterministic for a given
   compiler, unlike a timing. *)
let words_per_byte f s =
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (f ()));
  (Gc.minor_words () -. before) /. float_of_int (String.length s)

(* The Rand record of parsec.streamcluster2 at limit 10: ten long distinct
   schedules, so nearly every byte is a thread id. *)
let streamcluster2_rand =
  lazy
    (match Sctbench.Registry.by_name "parsec.streamcluster2" with
    | Some b ->
        Techniques.run
          { Techniques.default_options with Techniques.limit = 10 }
          Techniques.Rand b.Sctbench.Bench.program
    | None -> Alcotest.fail "missing parsec.streamcluster2")

let test_json_allocation () =
  let stats = Lazy.force streamcluster2_rand in
  (* a Rand record: mostly integer arrays, one per distinct schedule *)
  let s = Codec.encode_stats stats in
  Alcotest.(check bool) "a sizeable record" true (String.length s > 50_000);
  let v = Json.of_string s in
  let parse = words_per_byte (fun () -> Json.of_string s) s in
  let print = words_per_byte (fun () -> Json.to_string v) s in
  if parse > 6. then
    Alcotest.failf "parsing allocates %.2f minor words per byte (limit 6)" parse;
  if print > 0.25 then
    Alcotest.failf "printing allocates %.3f minor words per byte (limit 0.25)"
      print;
  Alcotest.(check string) "the record re-prints byte-identically" s
    (Json.to_string v)

(* --- distinct-schedule sets ---
   [Stats.Sched_set] keeps each schedule as a packed key. A test-local set
   of lists, ordered by [Stdlib.compare], is the reference it must agree
   with, and [list_distinct_to_json] encodes such a set the way the codec
   did before the packing. *)

module List_set = Set.Make (struct
  type t = Tid.t list

  let compare = Stdlib.compare
end)

let list_distinct_to_json set =
  Json.Arr
    (List.map
       (fun sched -> Json.Arr (List.map (fun t -> Json.Int t) sched))
       (List_set.elements set))

let gen_wide_schedules = QCheck2.Gen.(list_size (int_bound 8) gen_schedule)

let pack =
  let buf = Buffer.create 16 in
  fun l -> (Stats.Sched_set.key_of_map buf Fun.id l :> string)

let prop_packing_laws =
  QCheck2.Test.make
    ~name:"Sched_set: packed keys keep list order, set algebra and bytes"
    ~count:1000
    ~print:QCheck2.Print.(triple (list (list int)) (list (list int)) (list bool))
    QCheck2.Gen.(
      triple gen_wide_schedules gen_wide_schedules
        (list_size (int_bound 8) bool))
    (fun (ls, extra, keep) ->
      let module S = Stats.Sched_set in
      (* [ms] shares a random part of [ls], so [subset] goes both ways *)
      let ms =
        List.filteri
          (fun i _ -> match List.nth_opt keep i with Some k -> k | None -> false)
          ls
        @ extra
      in
      let sign c = Int.compare c 0 in
      let order =
        List.for_all
          (fun a ->
            List.for_all
              (fun b ->
                sign (String.compare (pack a) (pack b))
                = sign (Stdlib.compare a b))
              (ls @ ms))
          ls
      in
      let set = S.of_list ls and set' = S.of_list ms in
      let ref_set = List_set.of_list ls and ref_set' = List_set.of_list ms in
      let stats =
        {
          (Stats.base ~technique:"Rand") with
          Stats.total = List.length ls;
          distinct_schedules = Some set;
        }
      in
      let reference =
        with_field
          (Codec.encode_stats { stats with Stats.distinct_schedules = None })
          "distinct" (list_distinct_to_json ref_set)
      in
      order
      && S.elements set = List.sort_uniq Stdlib.compare ls
      && S.elements (S.union set set')
         = List_set.elements (List_set.union ref_set ref_set')
      && S.cardinal set = List_set.cardinal ref_set
      && S.cardinal (S.union set set')
         = List_set.cardinal (List_set.union ref_set ref_set')
      && S.subset set set' = List_set.subset ref_set ref_set'
      && S.subset set' set = List_set.subset ref_set' ref_set
      && Codec.encode_stats stats = reference
      && Stats.equal stats (Codec.decode_stats reference))

let stats_with_distinct distinct =
  Printf.sprintf
    {|{"v":1,"stats":{"technique":"Rand","bound":null,"bound_complete":false,"to_first_bug":null,"total":2,"new_at_bound":0,"buggy":0,"complete":false,"hit_limit":true,"first_bug":null,"n_threads":2,"max_enabled":2,"max_sched_points":1,"executions":2,"distinct":%s}}|}
    distinct

let test_noncanonical_distinct_rejected () =
  let canonical = stats_with_distinct "[[0,1],[1,0]]" in
  let s = Codec.decode_stats canonical in
  Alcotest.(check (option int)) "a canonical array decodes" (Some 2)
    (Stats.distinct s);
  Alcotest.(check string) "and re-encodes to its bytes" canonical
    (Codec.encode_stats s);
  List.iter
    (fun distinct ->
      match Codec.decode_stats (stats_with_distinct distinct) with
      | _ -> Alcotest.failf "%s decoded" distinct
      | exception Codec.Error msg ->
          Alcotest.(check bool)
            (Printf.sprintf "%S names distinct[1]" msg)
            true
            (Astring_contains.contains msg "distinct[1]"))
    [ "[[1,0],[0,1]]"; "[[0,1],[0,1]]" ];
  with_dir (fun dir ->
      let o = Techniques.default_options in
      let k = Db.fingerprint ~bench:"B1" ~technique:"Rand" o in
      let db = Db.open_ ~dir in
      Db.record db ~key:k ~bench:"B1" ~technique:"Rand" ~racy:0 ~options:o s;
      Db.close db;
      let file = Filename.concat dir "journal.jsonl" in
      let line = String.trim (In_channel.with_open_bin file In_channel.input_all) in
      let swapped =
        Json.Arr
          [ Json.Arr [ Json.Int 1; Json.Int 0 ]; Json.Arr [ Json.Int 0; Json.Int 1 ] ]
      in
      Out_channel.with_open_bin file (fun oc ->
          output_string oc (with_field line "distinct" swapped ^ "\n"));
      let db = Db.open_ ~dir in
      Alcotest.(check bool)
        "a record with an unsorted distinct array reads as a torn one" true
        (Db.find_any db k = None);
      Db.close db)

(* The gates below fail on a set of [Tid.t list]s (3.00 words per step), on
   a codec that goes through such lists (2.50 and 3.99 minor words per
   byte) and on one that builds a tree node per thread id (1.50 and
   2.50). *)
let test_distinct_size () =
  let stats = Lazy.force streamcluster2_rand in
  let set = Option.get stats.Stats.distinct_schedules in
  let steps =
    List.fold_left
      (fun n l -> n + List.length l)
      0
      (Stats.Sched_set.elements set)
  in
  let per_step =
    float_of_int (Obj.reachable_words (Obj.repr set)) /. float_of_int steps
  in
  if per_step > 0.25 then
    Alcotest.failf "the set keeps %.3f words per step (limit 0.25)" per_step;
  let s = Codec.encode_stats stats in
  let encode = words_per_byte (fun () -> Codec.encode_stats stats) s in
  let decode = words_per_byte (fun () -> Codec.decode_stats s) s in
  if encode > 0.05 then
    Alcotest.failf "encoding allocates %.3f minor words per byte (limit 0.05)"
      encode;
  if decode > 0.1 then
    Alcotest.failf "decoding allocates %.3f minor words per byte (limit 0.1)"
      decode;
  Alcotest.(check bool) "the record round-trips" true
    (Stats.equal stats (Codec.decode_stats s))

(* --- the streaming codec against the tree codec it replaced ---
   [Codec_reference] is the codec before statistics were streamed, kept
   verbatim. The streaming codec must print its bytes, and decode to an
   equal value or refuse exactly when it does: on its encodings, on
   re-printings with other whitespace, member orders, repeated and unknown
   members, and on truncated and byte-mutated forms of all of them. *)

let prop_encode_matches_reference =
  QCheck2.Test.make ~name:"Codec: stats, witnesses and schedules print the \
                           reference's bytes"
    ~count:1000 gen_stats (fun s ->
      Codec.encode_stats s = Codec_reference.encode_stats s
      &&
      match s.Stats.first_bug with
      | None -> true
      | Some w ->
          Codec.encode_witness w = Codec_reference.encode_witness w
          && Codec.encode_schedule w.Stats.w_schedule
             = Codec_reference.encode_schedule w.Stats.w_schedule)

let shuffle rng l =
  List.map (fun x -> (Random.State.bits rng, x)) l
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  |> List.map snd

let insert_at rng x l =
  let i = Random.State.int rng (List.length l + 1) in
  List.filteri (fun j _ -> j < i) l @ (x :: List.filteri (fun j _ -> j >= i) l)

(* Values a repeated or unknown member may carry: a copy of the original,
   or something ill-typed, negative or out of order. *)
let stray_value rng v =
  match Random.State.int rng 5 with
  | 0 -> v
  | 1 -> Json.Null
  | 2 -> Json.Int (-1)
  | 3 -> Json.Str "x"
  | _ -> Json.Arr [ Json.Arr [ Json.Int 1 ]; Json.Arr [ Json.Int 0 ] ]

(* [v] with members shuffled, repeated and added at every depth. *)
let rec vary rng = function
  | Json.Obj l ->
      let l = List.map (fun (k, v) -> (k, vary rng v)) l in
      let l = if Random.State.bool rng then shuffle rng l else l in
      let l =
        if l <> [] && Random.State.int rng 3 = 0 then
          let k, v = List.nth l (Random.State.int rng (List.length l)) in
          insert_at rng (k, stray_value rng v) l
        else l
      in
      let l =
        if Random.State.int rng 4 = 0 then
          insert_at rng ("unknown", stray_value rng (Json.Arr [])) l
        else l
      in
      Json.Obj l
  | Json.Arr l -> Json.Arr (List.map (vary rng) l)
  | v -> v

(* [v] printed with random whitespace around every token. *)
let print_spaced rng v =
  let buf = Buffer.create 256 in
  let ws () =
    for _ = 1 to Random.State.int rng 3 do
      Buffer.add_char buf [| ' '; '\n'; '\t'; '\r' |].(Random.State.int rng 4)
    done
  in
  let rec go v =
    ws ();
    (match v with
    | Json.Arr l ->
        Buffer.add_char buf '[';
        List.iteri
          (fun i x ->
            if i > 0 then Buffer.add_char buf ',';
            go x)
          l;
        ws ();
        Buffer.add_char buf ']'
    | Json.Obj l ->
        Buffer.add_char buf '{';
        List.iteri
          (fun i (k, x) ->
            if i > 0 then Buffer.add_char buf ',';
            ws ();
            Buffer.add_string buf (Json.to_string (Json.Str k));
            ws ();
            Buffer.add_char buf ':';
            go x)
          l;
        ws ();
        Buffer.add_char buf '}'
    | v -> Buffer.add_string buf (Json.to_string v));
    ws ()
  in
  go v;
  Buffer.contents buf

(* What may follow a record: whitespace, or garbage. *)
let tails = [| " \r"; "x"; "}"; ","; "{}" |]

let gen_variant encoded =
  QCheck2.Gen.(
    let* s = encoded in
    let* seed = int in
    let rng = Random.State.make [| seed |] in
    let v = vary rng (Json.of_string s) in
    oneofl
      [
        Json.to_string v;
        print_spaced rng v;
        s ^ tails.(Random.State.int rng (Array.length tails));
      ])

let gen_stats_inputs =
  QCheck2.Gen.(
    let encodings = map Codec.encode_stats gen_stats in
    let variants = gen_variant encodings in
    oneof [ encodings; variants; gen_mutated encodings; gen_mutated variants ])

let decoded f s =
  match f s with
  | v -> Ok v
  | exception (Codec.Error msg | Codec_reference.Error msg) -> Error msg

let prop_decode_matches_reference =
  QCheck2.Test.make
    ~name:"Codec: stats decode to the reference's value or are refused"
    ~count:3000 ~print:String.escaped gen_stats_inputs (fun s ->
      match
        (decoded Codec.decode_stats s, decoded Codec_reference.decode_stats s)
      with
      | Ok ours, Ok reference -> Stats.equal ours reference
      | Error _, Error _ -> true
      | _ -> false)

(* --- artifacts --- *)

let sample_witness =
  {
    Stats.w_bug = Outcome.Assertion_failure "x=y";
    w_by = 2;
    w_schedule = Schedule.of_list [ 0; 0; 1; 2; 1 ];
    w_pc = 2;
    w_dc = 3;
  }

let test_artifact_roundtrip () =
  with_dir (fun dir ->
      let a =
        Artifact.make ~bench:"CS.account_bad" ~technique:"IPB"
          ~options:Techniques.default_options ~bound:(Some 1) sample_witness
      in
      let path = Artifact.save ~dir a in
      let path' = Artifact.save ~dir a in
      Alcotest.(check string) "idempotent save" path path';
      let b = Artifact.load path in
      Alcotest.(check string) "digest" a.Artifact.digest b.Artifact.digest;
      Alcotest.(check string)
        "bench" "CS.account_bad" b.Artifact.meta.Artifact.a_bench;
      Alcotest.(check string) "technique" "IPB" b.Artifact.meta.Artifact.a_technique;
      Alcotest.(check bool)
        "options survive" true
        (b.Artifact.meta.Artifact.a_options = Techniques.default_options);
      Alcotest.(check (list int))
        "schedule" [ 0; 0; 1; 2; 1 ]
        (Schedule.to_list b.Artifact.schedule);
      Alcotest.(check int)
        "listed" 1
        (List.length (Artifact.list ~dir)))

let test_artifact_tamper_detected () =
  with_dir (fun dir ->
      let a =
        Artifact.make ~bench:"CS.account_bad" ~technique:"IPB"
          ~options:Techniques.default_options ~bound:None sample_witness
      in
      let path = Artifact.save ~dir a in
      (* flip the schedule line: content no longer matches the file name *)
      let ic = open_in_bin path in
      let content = really_input_string ic (in_channel_length ic) in
      close_in ic;
      let oc = open_out_bin path in
      output_string oc content;
      output_string oc "0,0\n";
      close_out oc;
      match Artifact.load path with
      | _ -> Alcotest.fail "tampered artifact loaded"
      | exception Artifact.Error _ -> ())

let test_schedule_of_file () =
  with_dir (fun dir ->
      let raw = Filename.concat dir "raw.txt" in
      let oc = open_out raw in
      output_string oc "# a comment\n\n  0, 0 ,1,2 \n";
      close_out oc;
      Alcotest.(check (list int))
        "raw file" [ 0; 0; 1; 2 ]
        (Schedule.to_list (Artifact.schedule_of_file raw));
      let a =
        Artifact.make ~bench:"b" ~technique:"Rand"
          ~options:Techniques.default_options ~bound:None sample_witness
      in
      let path = Artifact.save ~dir a in
      Alcotest.(check (list int))
        ".sched artifact" [ 0; 0; 1; 2; 1 ]
        (Schedule.to_list (Artifact.schedule_of_file path)))

(* --- journal --- *)

let entry_stats technique first_bug =
  {
    (Stats.base ~technique) with
    Stats.total = 7;
    executions = 7;
    buggy = (match first_bug with Some _ -> 1 | None -> 0);
    to_first_bug = Option.map (fun _ -> 3) first_bug;
    first_bug;
  }

let test_db_roundtrip () =
  with_dir (fun dir ->
      let db = Db.open_ ~dir in
      Alcotest.(check bool) "fresh store is empty" true (Db.is_empty db);
      let o = Techniques.default_options in
      let k1 = Db.fingerprint ~bench:"B1" ~technique:"IPB" o in
      let k2 = Db.fingerprint ~bench:"B1" ~technique:"Rand" o in
      Db.record db ~key:k1 ~bench:"B1" ~technique:"IPB" ~racy:2 ~options:o
        (entry_stats "IPB" (Some sample_witness));
      Db.record db ~key:k2 ~bench:"B1" ~technique:"Rand" ~racy:2 ~options:o
        (entry_stats "Rand" None);
      Db.close db;
      let db = Db.open_ ~dir in
      Alcotest.(check int) "two cells" 2 (Db.size db);
      let e1 = Option.get (Db.find db k1) in
      Alcotest.(check stats_t)
        "stats survive" (entry_stats "IPB" (Some sample_witness))
        e1.Db.e_stats;
      Alcotest.(check int) "racy survives" 2 e1.Db.e_racy;
      (match e1.Db.e_witness with
      | None -> Alcotest.fail "witness digest not journalled"
      | Some d ->
          Alcotest.(check bool)
            "witness artifact exists" true
            (Sys.file_exists
               (Filename.concat (Db.artifacts_dir db) (d ^ ".sched"))));
      Alcotest.(check bool)
        "bug-free cell has no artifact" true
        ((Option.get (Db.find db k2)).Db.e_witness = None);
      Db.close db)

let append_torn_record dir =
  let oc =
    open_out_gen
      [ Open_wronly; Open_append; Open_binary ]
      0o644
      (Filename.concat dir "journal.jsonl")
  in
  output_string oc {|{"v":1,"key":"torn|};
  (* no closing quote, no newline: a record cut short by a crash *)
  close_out oc

let test_db_truncated_tail () =
  with_dir (fun dir ->
      let o = Techniques.default_options in
      let k1 = Db.fingerprint ~bench:"B1" ~technique:"IPB" o in
      let db = Db.open_ ~dir in
      Db.record db ~key:k1 ~bench:"B1" ~technique:"IPB" ~racy:0 ~options:o
        (entry_stats "IPB" None);
      Db.close db;
      append_torn_record dir;
      (* the torn record is ignored ... *)
      let db = Db.open_ ~dir in
      Alcotest.(check int) "torn tail skipped" 1 (Db.size db);
      (* ... and appending after recovery re-establishes line framing *)
      let k2 = Db.fingerprint ~bench:"B2" ~technique:"IPB" o in
      Db.record db ~key:k2 ~bench:"B2" ~technique:"IPB" ~racy:1 ~options:o
        (entry_stats "IPB" None);
      Db.close db;
      let db = Db.open_ ~dir in
      Alcotest.(check int) "record after torn tail survives" 2 (Db.size db);
      Alcotest.(check int)
        "recovered racy" 1
        (Option.get (Db.find db k2)).Db.e_racy;
      Db.close db)

let test_fingerprint_ignores_parallelism () =
  let o = Techniques.default_options in
  (* the v1 options record keeps its [jobs] and [split_depth] members,
     whose values decode to nothing *)
  let with_v1_members ~jobs ~split_depth =
    Codec.decode_options
      (Printf.sprintf
         {|{"v":1,"options":{"limit":10000,"seed":0,"max_steps":100000,"race_runs":10,"pct_change_points":2,"maple_profile_runs":10,"jobs":%d,"split_depth":%d}}|}
         jobs split_depth)
  in
  Alcotest.(check bool)
    "jobs ignored" true
    (with_v1_members ~jobs:2 ~split_depth:3 = o
    && with_v1_members ~jobs:8 ~split_depth:3 = o);
  Alcotest.(check bool)
    "split_depth ignored" true
    (with_v1_members ~jobs:1 ~split_depth:0 = o
    && with_v1_members ~jobs:1 ~split_depth:50 = o);
  Alcotest.(check bool)
    "limit included" true
    (Db.fingerprint ~bench:"B" ~technique:"IPB" o
    <> Db.fingerprint ~bench:"B" ~technique:"IPB"
         { o with Techniques.limit = o.Techniques.limit + 1 });
  Alcotest.(check bool)
    "technique included" true
    (Db.fingerprint ~bench:"B" ~technique:"IPB" o
    <> Db.fingerprint ~bench:"B" ~technique:"IDB" o);
  (* batched cells carry different step counters, so they must not alias
     unbatched ones — but the off value must keep the historical bytes *)
  Alcotest.(check bool)
    "prefix_batch included when on" true
    (Db.fingerprint ~bench:"B" ~technique:"IPB" o
    <> Db.fingerprint ~bench:"B" ~technique:"IPB"
         { o with Techniques.prefix_batch = true })

(* The cell keys of existing stores: a key that moves makes every
   journalled cell re-run. Pinned for the default options and for a
   record that sets every member written only when set. *)
let test_fingerprint_fixture () =
  let o = Techniques.default_options in
  let all_optional =
    {
      o with
      Techniques.limit = 200;
      seed = 7;
      time_limit = Some 1.5;
      prefix_batch = true;
      por = Some Sct_explore.Por.Dpor_sleep;
      fair_bound = 3;
      length_bound = 100;
    }
  in
  let key = Db.fingerprint ~bench:"CS.account_bad" ~technique:"IPB" in
  Alcotest.(check string)
    "default options" "3adaa0c9b1c895a78a8b7113b308d2c4" (key o);
  Alcotest.(check string)
    "every optional member set" "cc93de004242425bbbcb96748df82508"
    (key all_optional)

(* --- artifact listing order --- *)

let test_artifact_list_order () =
  with_dir (fun dir ->
      (* distinct benches give distinct contents, hence distinct digests *)
      let digests =
        List.map
          (fun bench ->
            let a =
              Artifact.make ~bench ~technique:"Rand"
                ~options:Techniques.default_options ~bound:None sample_witness
            in
            let (_ : string) = Artifact.save ~dir a in
            a.Artifact.digest)
          [ "B1"; "B2"; "B3"; "B4"; "B5"; "B6"; "B7" ]
      in
      let listed =
        List.map (fun a -> a.Artifact.digest) (Artifact.list ~dir)
      in
      Alcotest.(check (list string))
        "listed in digest order, independent of readdir order"
        (List.sort String.compare digests)
        listed)

(* --- campaign progress records --- *)

let test_db_progress_records () =
  with_dir (fun dir ->
      let o = Techniques.default_options in
      let k = Db.fingerprint ~bench:"B" ~technique:"Rand" o in
      let db = Db.open_ ~dir in
      Db.record
        ~progress:{ Codec.p_consumed = 10; p_slices = 1; p_done = false }
        db ~key:k ~bench:"B" ~technique:"Rand" ~racy:0 ~options:o
        (entry_stats "Rand" None);
      Alcotest.(check bool) "in-flight cell invisible to find" true (Db.find db k = None);
      Alcotest.(check bool) "in-flight cell invisible to mem" false (Db.mem db k);
      Alcotest.(check bool) "visible to find_any" true (Db.find_any db k <> None);
      Alcotest.(check int) "size counts finished cells only" 0 (Db.size db);
      Alcotest.(check bool) "but the store is not empty" false (Db.is_empty db);
      Db.record
        ~progress:{ Codec.p_consumed = 40; p_slices = 2; p_done = true }
        db ~key:k ~bench:"B" ~technique:"Rand" ~racy:0 ~options:o
        (entry_stats "Rand" None);
      Alcotest.(check bool) "done campaign cell visible to find" true (Db.mem db k);
      Db.close db;
      let db = Db.open_ ~dir in
      (match Db.find db k with
      | None -> Alcotest.fail "done campaign cell lost on reopen"
      | Some e -> (
          match e.Db.e_progress with
          | Some p ->
              Alcotest.(check int) "consumed survives" 40 p.Codec.p_consumed;
              Alcotest.(check int) "slices survive" 2 p.Codec.p_slices
          | None -> Alcotest.fail "progress lost on reopen"));
      Db.close db)

(* --- merging worker stores: lattice laws --- *)

(* Journals whose records collide on few keys (two benches × two
   techniques, fixed options), so merges exercise the per-key join. *)
let gen_journal =
  QCheck2.Gen.(
    list_size (int_bound 6)
      (let* bench = oneofl [ "B1"; "B2" ] in
       let* technique = oneofl [ "IPB"; "Rand" ] in
       let* racy = int_bound 3 in
       let* stats = gen_stats in
       let* progress = option gen_progress in
       return (bench, technique, racy, { stats with Stats.technique }, progress)))

let build_store dir journal =
  let db = Db.open_ ~dir in
  List.iter
    (fun (bench, technique, racy, stats, progress) ->
      let key = Db.fingerprint ~bench ~technique Techniques.default_options in
      Db.record ?progress db ~key ~bench ~technique ~racy
        ~options:Techniques.default_options stats)
    journal;
  db

(* A store's semantic content, order-independent. *)
let canon db =
  Db.entries_any db
  |> List.map (fun (k, (e : Db.entry)) ->
         ( k,
           e.Db.e_bench,
           e.Db.e_technique,
           e.Db.e_racy,
           Codec.encode_stats e.Db.e_stats,
           e.Db.e_witness,
           Option.map
             (fun (p : Codec.progress) ->
               (p.Codec.p_consumed, p.Codec.p_slices, p.Codec.p_done))
             e.Db.e_progress ))
  |> List.sort compare

(* Build the journals in fresh stores, merge them (in journal-list order)
   into another fresh store, and return its canonical content. *)
let canon_of_merge journals =
  with_dir (fun dir ->
      let dst = Db.open_ ~dir:(Filename.concat dir "dst") in
      List.iteri
        (fun i j ->
          let src =
            build_store (Filename.concat dir (Printf.sprintf "src%d" i)) j
          in
          Db.merge_from dst ~src;
          Db.close src)
        journals;
      let c = canon dst in
      Db.close dst;
      c)

let prop_merge_commutative =
  QCheck2.Test.make ~name:"Db.merge_from: commutative" ~count:15
    QCheck2.Gen.(tup2 gen_journal gen_journal)
    (fun (a, b) -> canon_of_merge [ a; b ] = canon_of_merge [ b; a ])

let prop_merge_associative =
  QCheck2.Test.make ~name:"Db.merge_from: associative" ~count:15
    QCheck2.Gen.(tup3 gen_journal gen_journal gen_journal)
    (fun (a, b, c) ->
      (* ((a ∪ b) ∪ c) vs (a ∪ (b ∪ c)): materialise b ∪ c first, then
         fold it into a copy of a *)
      let left = canon_of_merge [ a; b; c ] in
      let right =
        with_dir (fun dir ->
            let bc = Db.open_ ~dir:(Filename.concat dir "bc") in
            let sb = build_store (Filename.concat dir "b") b in
            let sc = build_store (Filename.concat dir "c") c in
            Db.merge_from bc ~src:sb;
            Db.merge_from bc ~src:sc;
            Db.close sb;
            Db.close sc;
            let dst = Db.open_ ~dir:(Filename.concat dir "dst") in
            let sa = build_store (Filename.concat dir "a") a in
            Db.merge_from dst ~src:sa;
            Db.merge_from dst ~src:bc;
            Db.close sa;
            Db.close bc;
            let c = canon dst in
            Db.close dst;
            c)
      in
      left = right)

let prop_merge_idempotent =
  QCheck2.Test.make
    ~name:"Db.merge_from: idempotent on duplicate cells" ~count:15 gen_journal
    (fun a ->
      (* a ∪ a = a, both as a repeated source and as a self-re-merge *)
      canon_of_merge [ a; a ] = canon_of_merge [ a ])

let read_file file = In_channel.with_open_bin file In_channel.input_all

let write_file file content =
  Out_channel.with_open_bin file (fun oc -> output_string oc content)

let test_db_negative_record_skipped () =
  with_dir (fun dir ->
      let o = Techniques.default_options in
      let k = Db.fingerprint ~bench:"B1" ~technique:"IPB" o in
      let db = Db.open_ ~dir in
      Db.record db ~key:k ~bench:"B1" ~technique:"IPB" ~racy:0 ~options:o
        (entry_stats "IPB" None);
      Db.close db;
      let file = Filename.concat dir "journal.jsonl" in
      let line = String.trim (read_file file) in
      write_file file (with_field line "total" (Json.Int (-7)) ^ "\n");
      let db = Db.open_ ~dir in
      Alcotest.(check bool)
        "a negative counter reads as a torn record" true
        (Db.find_any db k = None);
      Db.record db ~key:k ~bench:"B1" ~technique:"IPB" ~racy:0 ~options:o
        (entry_stats "IPB" None);
      Db.close db;
      let db = Db.open_ ~dir in
      Alcotest.(check int) "the re-executed cell is journalled" 1 (Db.size db);
      Db.close db)

let prop_mutated_journal_opens =
  QCheck2.Test.make
    ~name:"Db.open_: a mutated journal opens and keeps non-negative cells"
    ~count:60
    QCheck2.Gen.(pair gen_journal (list_size (int_range 1 4) gen_mutation))
    (fun (journal, ms) ->
      with_dir (fun dir ->
          Db.close (build_store dir journal);
          let file = Filename.concat dir "journal.jsonl" in
          let content = if Sys.file_exists file then read_file file else "" in
          write_file file (List.fold_left mutate content ms);
          let db = Db.open_ ~dir in
          let sound =
            List.for_all
              (fun (_, e) ->
                List.for_all (fun i -> i >= 0) (stats_ints e.Db.e_stats))
              (Db.entries_any db)
          in
          Db.close db;
          sound))

(* A journal as [Db.open_] read it before statistics were streamed: the
   whole file split on newlines, each line parsed as a tree and decoded by
   the reference codec, the latest record of a key kept at its first
   position. *)
let reference_open content =
  let module R = Codec_reference in
  let decode line =
    match Json.of_string line with
    | exception Json.Parse_error _ -> None
    | j -> (
        try
          R.check_version j;
          Some
            ( R.get_string (R.field j "key"),
              ( R.get_string (R.field j "bench"),
                R.get_string (R.field j "technique"),
                R.get_int (R.field j "racy"),
                R.stats_of_json (R.field j "stats"),
                R.opt_field j "witness" R.get_string,
                R.opt_field j "progress" (fun j ->
                    let p = R.progress_of_json j in
                    (p.R.p_consumed, p.R.p_slices, p.R.p_done)) ) )
        with R.Error _ -> None)
  in
  let order = ref [] and tbl = Hashtbl.create 8 in
  List.iter
    (fun line ->
      if String.trim line <> "" then
        match decode line with
        | Some (k, e) ->
            if not (Hashtbl.mem tbl k) then order := k :: !order;
            Hashtbl.replace tbl k e
        | None -> ())
    (String.split_on_char '\n' content);
  List.rev_map (fun k -> (k, Hashtbl.find tbl k)) !order

(* [Db.entries_any] of a store equals [reference_open] of its journal. *)
let reads_like_reference ours text =
  let same (k, (e : Db.entry)) (k', (b, t, r, s, w, p)) =
    k = k' && e.Db.e_bench = b && e.Db.e_technique = t
    && e.Db.e_racy = r
    && Stats.equal e.Db.e_stats s
    && e.Db.e_witness = w
    && Option.map
         (fun (p : Codec.progress) ->
           (p.Codec.p_consumed, p.Codec.p_slices, p.Codec.p_done))
         e.Db.e_progress
       = p
  in
  let reference = reference_open text in
  List.length ours = List.length reference && List.for_all2 same ours reference

let gen_journal_text =
  QCheck2.Gen.(
    let* journal = gen_journal in
    let* seed = int in
    let* ms = list_size (int_bound 3) gen_mutation in
    let text =
      with_dir (fun dir ->
          Db.close (build_store dir journal);
          let file = Filename.concat dir "journal.jsonl" in
          if Sys.file_exists file then read_file file else "")
    in
    let rng = Random.State.make [| seed |] in
    let vary_line line =
      if line = "" then line
      else
        match Random.State.int rng 4 with
        | 0 -> line
        | 1 -> line ^ tails.(Random.State.int rng (Array.length tails))
        | _ ->
            let v = vary rng (Json.of_string line) in
            if Random.State.bool rng then Json.to_string v
            else print_spaced rng v
    in
    let text =
      String.concat "\n" (List.map vary_line (String.split_on_char '\n' text))
    in
    return (List.fold_left mutate text ms))

let prop_journal_reads_like_reference =
  QCheck2.Test.make
    ~name:"Db.open_: a journal reads as the tree-based reader read it"
    ~count:150 ~print:String.escaped gen_journal_text (fun text ->
      with_dir (fun dir ->
          write_file (Filename.concat dir "journal.jsonl") text;
          let db = Db.open_ ~dir in
          let ours = Db.entries_any db in
          Db.close db;
          reads_like_reference ours text))

(* The journal line the store writes for one record of [bench] under
   [technique] with [total] schedules. *)
let record_line bench technique total =
  let o = Techniques.default_options in
  with_dir (fun dir ->
      let db = Db.open_ ~dir in
      Db.record db
        ~key:(Db.fingerprint ~bench ~technique o)
        ~bench ~technique ~racy:0 ~options:o
        { (entry_stats technique None) with Stats.total };
      Db.close db;
      String.trim (read_file (Filename.concat dir "journal.jsonl")))

(* [Db.entries_any] of a store whose journal is [text]. *)
let open_text text =
  with_dir (fun dir ->
      write_file (Filename.concat dir "journal.jsonl") text;
      let db = Db.open_ ~dir in
      let ours = Db.entries_any db in
      Db.close db;
      ours)

(* [Db.open_] decodes only the records that survive. One key's first
   record is torn and its last fails to decode, while other keys' records,
   one written with its members reordered, interleave with it: the key
   must keep the place of its first record that decodes, and its latest
   record that decodes. *)
let test_db_damaged_first_and_last () =
  let torn l = String.sub l 0 (String.length l / 2) in
  let reordered l =
    match Json.of_string l with
    | Json.Obj fields ->
        Json.to_string (Json.Obj (List.rev fields))
    | _ -> Alcotest.fail "a record is an object"
  in
  let k n = record_line "K" "IPB" n in
  let lines =
    [
      record_line "A" "IPB" 1;
      torn (k 1);
      record_line "B" "Rand" 1;
      k 2;
      record_line "A" "IPB" 2;
      reordered (record_line "C" "IPB" 1);
      k 3;
      with_field (k 4) "total" (Json.Int (-4));
      record_line "B" "Rand" 2;
    ]
  in
  let text = String.concat "\n" lines ^ "\n" in
  let ours = open_text text in
  Alcotest.(check (list string))
    "keys in the order of their first record that decodes"
    [ "A"; "B"; "K"; "C" ]
    (List.map (fun (_, e) -> e.Db.e_bench) ours);
  Alcotest.(check (list int))
    "each key's latest record that decodes" [ 2; 2; 3; 1 ]
    (List.map (fun (_, e) -> e.Db.e_stats.Stats.total) ours);
  Alcotest.(check bool) "reads as a line-by-line reading" true
    (reads_like_reference ours text)

(* [Db.open_] reads the journal in chunks and keeps only each line's head.
   Lines here cross chunk boundaries and some are longer than a chunk: a
   record padded after its key, one padded before its [v] member so that
   its head holds no key, a blank line, and a last record with no
   newline. *)
let test_db_lines_across_chunks () =
  let pad = String.make 70_000 ' ' in
  let keys = [| "A"; "B"; "C"; "D"; "E" |] in
  let lines =
    List.init 600 (fun i ->
        let l = record_line keys.(i mod 5) "IPB" (i + 1) in
        match i mod 150 with
        | 7 -> l ^ pad
        | 8 -> pad ^ l
        | 9 -> pad
        | _ -> l)
  in
  let text = String.concat "\n" lines ^ "\n" ^ record_line "F" "IPB" 1 in
  let ours = open_text text in
  Alcotest.(check (list string))
    "every key, in the order of its first record"
    [ "A"; "B"; "C"; "D"; "E"; "F" ]
    (List.map (fun (_, e) -> e.Db.e_bench) ours);
  Alcotest.(check bool) "reads as a line-by-line reading" true
    (reads_like_reference ours text)

let test_merge_prefers_advanced () =
  let o = Techniques.default_options in
  let stats n = { (entry_stats "Rand" None) with Stats.total = n } in
  let rec_with db key progress n =
    Db.record ?progress db ~key ~bench:"B" ~technique:"Rand" ~racy:0
      ~options:o (stats n)
  in
  let key = Db.fingerprint ~bench:"B" ~technique:"Rand" o in
  let check_merge ~what ~expect j1 j2 =
    with_dir (fun dir ->
        let s1 = Db.open_ ~dir:(Filename.concat dir "s1") in
        j1 s1;
        let s2 = Db.open_ ~dir:(Filename.concat dir "s2") in
        j2 s2;
        List.iter
          (fun (a, b) ->
            let dst = Db.open_ ~dir:(fresh_dir ()) in
            Db.merge_from dst ~src:a;
            Db.merge_from dst ~src:b;
            let e = Option.get (Db.find_any dst key) in
            Alcotest.(check int) what expect e.Db.e_stats.Stats.total;
            let d = Db.dir dst in
            Db.close dst;
            rm_rf d)
          [ (s1, s2); (s2, s1) ];
        Db.close s1;
        Db.close s2)
  in
  let inflight n db =
    rec_with db key
      (Some { Codec.p_consumed = n; p_slices = 1; p_done = false })
      n
  in
  let finished n db =
    rec_with db key
      (Some { Codec.p_consumed = n; p_slices = 2; p_done = true })
      n
  in
  check_merge ~what:"larger banked budget wins" ~expect:20 (inflight 10)
    (inflight 20);
  check_merge ~what:"finished beats in-flight" ~expect:15 (finished 15)
    (inflight 20)

(* --- compaction --- *)

let count_journal_lines dir =
  let ic = open_in_bin (Filename.concat dir "journal.jsonl") in
  let content = really_input_string ic (in_channel_length ic) in
  close_in ic;
  String.split_on_char '\n' content
  |> List.filter (fun l -> String.trim l <> "")
  |> List.length

(* --- kill-and-resume: the tentpole guarantee --- *)

let pick name =
  match Sctbench.Registry.by_name name with
  | Some b -> b
  | None -> Alcotest.fail ("missing " ^ name)

let resume_options = { Techniques.default_options with Techniques.limit = 40 }

let resume_benches () =
  [ pick "CS.lazy01_bad"; pick "CS.deadlock01_bad"; pick "CS.account_bad" ]

let check_rows_equal clean resumed =
  List.iter2
    (fun (c : Sct_report.Run_data.row) (r : Sct_report.Run_data.row) ->
      let name = c.Sct_report.Run_data.bench.Sctbench.Bench.name in
      Alcotest.(check string)
        "bench" name r.Sct_report.Run_data.bench.Sctbench.Bench.name;
      Alcotest.(check int)
        (name ^ " racy") c.Sct_report.Run_data.racy_locations
        r.Sct_report.Run_data.racy_locations;
      List.iter2
        (fun (t1, s1) (t2, s2) ->
          Alcotest.(check bool) "technique order" true (t1 = t2);
          Alcotest.check stats_t
            (name ^ " " ^ Techniques.name t1)
            s1 s2)
        c.Sct_report.Run_data.results r.Sct_report.Run_data.results)
    clean resumed

exception Interrupted

(* [run_all ~store ~progress o benches] runs the study with a store: the
   sequential runner, or [Suite.run_all], whose collector journals cells in
   between the tasks it runs itself. *)
let kill_and_resume run_all () =
  with_dir (fun dir ->
      let o = resume_options in
      let benches = resume_benches () in
      let n_cells = List.length benches * List.length Techniques.all_paper in
      let clean = Sct_report.Run_data.run_all o benches in
      (* run with a store and "crash" before the third benchmark *)
      let db = Db.open_ ~dir in
      let seen = ref 0 in
      (try
         ignore
           (run_all ~store:db
              ~progress:(fun _ ->
                incr seen;
                if !seen = 3 then raise Interrupted)
              o benches
             : Sct_report.Run_data.row list)
       with Interrupted -> ());
      Db.close db;
      append_torn_record dir;
      (* resume: only the missing cells may run *)
      let db = Db.open_ ~dir in
      let before = Db.size db in
      Alcotest.(check bool)
        "interrupted partway" true
        (before > 0 && before < n_cells);
      let resumed = run_all ~store:db ~progress:ignore o benches in
      Alcotest.(check int) "all cells journalled" n_cells (Db.size db);
      Db.close db;
      check_rows_equal clean resumed;
      (* nothing journalled twice: every line in the journal is either one
         of the cells or the torn record *)
      let ic = open_in_bin (Filename.concat dir "journal.jsonl") in
      let content = really_input_string ic (in_channel_length ic) in
      close_in ic;
      let lines =
        String.split_on_char '\n' content
        |> List.filter (fun l -> String.trim l <> "")
      in
      Alcotest.(check int)
        "no cell re-executed" (n_cells + 1) (List.length lines);
      (* a fully journalled store reproduces the rows without running
         anything — and still matches *)
      let db = Db.open_ ~dir in
      let cached = run_all ~store:db ~progress:ignore o benches in
      Alcotest.(check int) "pure read" n_cells (Db.size db);
      Db.close db;
      check_rows_equal clean cached)

let test_kill_and_resume =
  kill_and_resume (fun ~store ~progress o benches ->
      Sct_report.Run_data.run_all ~store ~progress o benches)

let test_suite_kill_and_resume =
  kill_and_resume (fun ~store ~progress o benches ->
      Sct_parallel.Pool.with_pool ~jobs:2 (fun pool ->
          Sct_parallel.Suite.run_all ~pool ~store ~progress o benches))

let test_compact_then_resume () =
  with_dir (fun dir ->
      let o = resume_options in
      let benches = resume_benches () in
      let clean = Sct_report.Run_data.run_all o benches in
      (* interrupt a stored run, tear the journal tail, then compact *)
      let db = Db.open_ ~dir in
      let seen = ref 0 in
      (try
         ignore
           (Sct_report.Run_data.run_all ~store:db
              ~progress:(fun _ ->
                incr seen;
                if !seen = 3 then raise Interrupted)
              o benches
             : Sct_report.Run_data.row list)
       with Interrupted -> ());
      Db.close db;
      append_torn_record dir;
      let db = Db.open_ ~dir in
      let before = canon db in
      let records = List.length (Db.entries_any db) in
      Db.compact db;
      Alcotest.(check bool)
        "in-memory state unchanged by compaction" true
        (canon db = before);
      Alcotest.(check int)
        "journal holds exactly one line per cell (torn tail dropped)"
        records (count_journal_lines dir);
      Db.close db;
      (* the compacted store resumes into exactly the clean rows *)
      let db = Db.open_ ~dir in
      Alcotest.(check bool)
        "reopened compacted store reads back identically" true
        (canon db = before);
      let resumed = Sct_report.Run_data.run_all ~store:db o benches in
      Db.close db;
      check_rows_equal clean resumed)

let test_witnesses_replay_as_buggy () =
  with_dir (fun dir ->
      let o = resume_options in
      let benches = resume_benches () in
      let db = Db.open_ ~dir in
      let (_ : Sct_report.Run_data.row list) =
        Sct_report.Run_data.run_all ~store:db o benches
      in
      let witnesses =
        List.filter_map (fun (_, e) -> e.Db.e_witness) (Db.entries db)
      in
      Alcotest.(check bool) "some witnesses recorded" true (witnesses <> []);
      List.iter
        (fun digest ->
          let a =
            Artifact.load
              (Filename.concat (Db.artifacts_dir db) (digest ^ ".sched"))
          in
          let b = pick a.Artifact.meta.Artifact.a_bench in
          let ao = a.Artifact.meta.Artifact.a_options in
          let promote =
            Sct_race.Promotion.promote
              (Techniques.detect_races ao b.Sctbench.Bench.program)
          in
          match
            Sct_explore.Replay.replay ~promote
              ~max_steps:ao.Techniques.max_steps ~schedule:a.Artifact.schedule
              b.Sctbench.Bench.program
          with
          | None -> Alcotest.fail (digest ^ ": witness schedule infeasible")
          | Some r ->
              Alcotest.(check bool)
                (digest ^ " reproduces its bug")
                true
                (Outcome.is_buggy r.Sct_core.Runtime.r_outcome))
        witnesses;
      Db.close db)

(* The store's line buffer gives back the capacity of an oversize record:
   after a multi-MiB Rand record and a small record under the same key,
   the store holds about the small record, not the large one's buffer. *)
let test_db_line_buffer_shrinks () =
  with_dir (fun dir ->
      let db = Db.open_ ~dir in
      let record stats =
        Db.record db ~key:"k" ~bench:"B" ~technique:"Rand" ~racy:0
          ~options:Techniques.default_options stats
      in
      (* 4,096 distinct schedules of 512 steps: about 4 MiB of journal *)
      let schedule i = List.init 512 (fun j -> (i lsr (j mod 12)) land 1) in
      let big =
        {
          (Stats.base ~technique:"Rand") with
          Stats.total = 4_096;
          distinct_schedules =
            Some (Stats.Sched_set.of_list (List.init 4_096 schedule));
        }
      in
      record big;
      let journal = Filename.concat dir "journal.jsonl" in
      let big_bytes = (Unix.stat journal).Unix.st_size in
      Alcotest.(check bool) "the big record is multi-MiB" true
        (big_bytes > 2 * 1024 * 1024);
      record { (Stats.base ~technique:"Rand") with Stats.total = 1 };
      let words = Obj.reachable_words (Obj.repr db) in
      Db.close db;
      if words * (Sys.word_size / 8) > big_bytes / 16 then
        Alcotest.failf "the store holds %d words after a %d-byte record" words
          big_bytes)

let suites =
  [
    ( "store.codec",
      [
        QCheck_alcotest.to_alcotest prop_roundtrip_schedule;
        QCheck_alcotest.to_alcotest prop_roundtrip_bug;
        QCheck_alcotest.to_alcotest prop_roundtrip_witness;
        QCheck_alcotest.to_alcotest prop_roundtrip_options;
        QCheck_alcotest.to_alcotest prop_roundtrip_stats;
        QCheck_alcotest.to_alcotest prop_roundtrip_progress;
        Alcotest.test_case "version-1 wire format is stable" `Quick
          test_fixture_stability;
        Alcotest.test_case "campaign progress wire format is stable" `Quick
          test_progress_fixture_stability;
        Alcotest.test_case "version gate and malformed input" `Quick
          test_version_gate;
        Alcotest.test_case "negative counts, bounds and tids are refused"
          `Quick test_negative_stats_rejected;
        QCheck_alcotest.to_alcotest prop_mutated_stats_nonnegative;
        QCheck_alcotest.to_alcotest prop_encode_matches_reference;
        QCheck_alcotest.to_alcotest prop_decode_matches_reference;
      ] );
    ( "store.json",
      [
        QCheck_alcotest.to_alcotest prop_print_matches_reference;
        QCheck_alcotest.to_alcotest prop_scan_matches_reference;
        Alcotest.test_case "positioned errors; \\u takes four hex digits"
          `Quick test_json_errors;
        Alcotest.test_case "parse and print allocate little per byte" `Quick
          test_json_allocation;
      ] );
    ( "store.distinct",
      [
        QCheck_alcotest.to_alcotest prop_packing_laws;
        Alcotest.test_case "non-canonical distinct arrays are refused" `Quick
          test_noncanonical_distinct_rejected;
        Alcotest.test_case "sets and their codec are small per step" `Quick
          test_distinct_size;
      ] );
    ( "store.artifact",
      [
        Alcotest.test_case "save/load round-trip, content-addressed" `Quick
          test_artifact_roundtrip;
        Alcotest.test_case "tampering is detected" `Quick
          test_artifact_tamper_detected;
        Alcotest.test_case "schedule_of_file reads raw and .sched files"
          `Quick test_schedule_of_file;
        Alcotest.test_case "listing is digest-ordered" `Quick
          test_artifact_list_order;
      ] );
    ( "store.db",
      [
        Alcotest.test_case "journal round-trip with witness artifacts" `Quick
          test_db_roundtrip;
        Alcotest.test_case "truncated final record is recovered" `Quick
          test_db_truncated_tail;
        Alcotest.test_case "fingerprint ignores jobs/split-depth" `Quick
          test_fingerprint_ignores_parallelism;
        Alcotest.test_case "fingerprint hex is pinned" `Quick
          test_fingerprint_fixture;
        Alcotest.test_case "campaign progress records are slice-resumable"
          `Quick test_db_progress_records;
        Alcotest.test_case "a record with a negative counter is re-executed"
          `Quick test_db_negative_record_skipped;
        Alcotest.test_case "an oversize record's buffer is given back" `Quick
          test_db_line_buffer_shrinks;
        QCheck_alcotest.to_alcotest prop_mutated_journal_opens;
        QCheck_alcotest.to_alcotest prop_journal_reads_like_reference;
        Alcotest.test_case "a key's damaged first and last records" `Quick
          test_db_damaged_first_and_last;
        Alcotest.test_case "lines across read chunks" `Quick
          test_db_lines_across_chunks;
      ] );
    ( "store.merge",
      [
        QCheck_alcotest.to_alcotest prop_merge_commutative;
        QCheck_alcotest.to_alcotest prop_merge_associative;
        QCheck_alcotest.to_alcotest prop_merge_idempotent;
        Alcotest.test_case "join keeps the most advanced snapshot" `Quick
          test_merge_prefers_advanced;
      ] );
    ( "store.resume",
      [
        Alcotest.test_case "kill-and-resume equals an uninterrupted run"
          `Slow test_kill_and_resume;
        Alcotest.test_case "kill-and-resume on a 2-domain suite run" `Slow
          test_suite_kill_and_resume;
        Alcotest.test_case "compacted store resumes identically" `Slow
          test_compact_then_resume;
        Alcotest.test_case "recorded witnesses replay as buggy" `Slow
          test_witnesses_replay_as_buggy;
      ] );
  ]
