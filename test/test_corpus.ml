(* The corpus factory: program serialization round-trips, the
   HB-signature/POR law the dedupe digest rests on, shrink idempotence,
   mining determinism, promotion round-trips, the registry extension
   mechanism, and the [corpus stats] golden file. *)

open Sct_corpus
module Gen = Sct_fuzz.Gen
module Ast = Sct_fuzz.Ast
module Compile = Sct_fuzz.Compile
module Shrink = Sct_fuzz.Shrink

let vocabs = [ Gen.Classic; Gen.Async; Gen.Full ]

(* --- program text ------------------------------------------------------- *)

let test_text_roundtrip () =
  List.iter
    (fun vocab ->
      for seed = 0 to 30 do
        let p = Gen.generate ~vocab ~seed () in
        let text = Program_text.to_string p in
        match Program_text.parse text with
        | Error msg ->
            Alcotest.failf "vocab %s seed %d: parse failed: %s"
              (Gen.vocab_name vocab) seed msg
        | Ok q ->
            if not (Ast.equal p q) then
              Alcotest.failf "vocab %s seed %d: roundtrip changed the program"
                (Gen.vocab_name vocab) seed
      done)
    vocabs

let test_text_rejects () =
  let bad =
    [
      ("empty input", "");
      ("missing header", "(thread (yield))\n");
      ("unknown form", Program_text.header ^ "\n(thread (frobnicate))\n");
      ("statement at top level", Program_text.header ^ "\n(yield)\n");
      ("unbalanced parens", Program_text.header ^ "\n(thread (yield)\n");
      ("bad arity", Program_text.header ^ "\n(thread (write 1))\n");
    ]
  in
  List.iter
    (fun (what, src) ->
      match Program_text.parse src with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%s: expected a parse error" what)
    bad

(* Integers are decimal only, as [to_string] prints them, and every error
   names the byte offset of the offending token or form. *)
let test_text_positioned_errors () =
  let h = Program_text.header ^ "\n" in
  let at = String.length h in
  List.iter
    (fun (src, expect) ->
      match Program_text.parse src with
      | Error msg -> Alcotest.(check string) (String.escaped src) expect msg
      | Ok p ->
          Alcotest.failf "%s: accepted, rendered as %s" (String.escaped src)
            (String.escaped (Program_text.to_string p)))
    [
      ( h ^ "(thread (write 0x1 1_0))\n",
        Printf.sprintf "offset %d: expected a decimal integer, got 0x1"
          (at + 15) );
      ( h ^ "(thread (write 1 1_0))\n",
        Printf.sprintf "offset %d: expected a decimal integer, got 1_0"
          (at + 17) );
      ( h ^ "(thread (write +1 0b11))\n",
        Printf.sprintf "offset %d: expected a decimal integer, got +1"
          (at + 15) );
      ( h ^ "(thread (join 0o7))\n",
        Printf.sprintf "offset %d: expected a decimal integer, got 0o7"
          (at + 14) );
      ( h ^ "(thread (incr 99999999999999999999))\n",
        Printf.sprintf "offset %d: integer out of range: 99999999999999999999"
          (at + 14) );
      ( h ^ "(thread (writ 1 2))\n",
        Printf.sprintf "offset %d: unknown statement form writ" (at + 8) );
      ( h ^ "(thread (yield)\n",
        Printf.sprintf
          "offset %d: unbalanced parentheses: this '(' is never closed" at );
      ( h ^ "(thread (yield)))\n",
        Printf.sprintf "offset %d: unbalanced parentheses: stray ')'"
          (at + 16) );
      ( h ^ "(thread (write 1))\n",
        Printf.sprintf "offset %d: bad arity in (write 1)" (at + 8) );
      ( h ^ "(yield)\n",
        Printf.sprintf "offset %d: expected a (thread ...) form, got (yield)"
          at );
      ("", {|offset 0: empty input (expected header "# sct-corpus program v1")|});
      ( "\n  # sct-corpus program v2\n",
        {|offset 3: expected header "# sct-corpus program v1", got "# sct-corpus program v2"|}
      );
    ];
  (* negative integers are what [%d] prints for them *)
  match Program_text.parse (h ^ "(thread (write -3 7))\n") with
  | Ok { Ast.threads = [ [ Ast.Write { var = -3; value = 7 } ] ] } -> ()
  | Ok _ -> Alcotest.fail "(write -3 7) parsed to another program"
  | Error msg -> Alcotest.failf "(write -3 7) rejected: %s" msg

(* Bytes that steer the program parser, plus any byte at all. *)
let gen_program_byte =
  QCheck2.Gen.(
    oneof
      [
        oneofl
          [
            '('; ')'; '0'; '1'; '7'; '-'; '+'; 'x'; 'b'; 'o'; '_'; ' '; '\n';
            '\t'; '\r'; '\012'; '#'; 'e'; 't';
          ];
        char;
      ])

let gen_mutated_program_text =
  QCheck2.Gen.(
    let* vocab = oneofl vocabs in
    let* seed = int_bound 10_000 in
    let* ms =
      list_size (int_range 1 4)
        (let* k = nat in
         let* c = gen_program_byte in
         oneofl
           Test_store.[ Truncate k; Replace (k, c); Insert (k, c); Delete k ])
    in
    return
      (List.fold_left Test_store.mutate
         (Program_text.to_string (Gen.generate ~vocab ~seed ()))
         ms))

(* Mutation law: start from [to_string] renderings of generated programs
   and mutate bytes. Every input either parses to a program whose
   rendering parses back equal, or returns an [Error] naming an offset
   inside the input. No exception escapes [parse]. *)
let prop_text_mutated =
  QCheck2.Test.make
    ~name:"Program_text.parse: mutated programs round-trip or fail in place"
    ~count:2000 ~print:String.escaped gen_mutated_program_text (fun src ->
      match Program_text.parse src with
      | Ok p -> (
          match Program_text.parse (Program_text.to_string p) with
          | Ok q -> Ast.equal p q
          | Error _ -> false)
      | Error msg -> (
          match Scanf.sscanf_opt msg "offset %d: %_s" Fun.id with
          | Some off -> off >= 0 && off < max 1 (String.length src)
          | None -> false))

(* --- the HB/POR law behind the dedupe digest ---------------------------- *)

(* Two schedules that differ only by swapping adjacent commuting steps of
   different threads are POR-equivalent, and the behavioural digest rests
   on them having equal HB signatures.

   Two refinements make the property exact. First, the signature is
   deliberately FINER than Mazurkiewicz trace equivalence: it records each
   object's full touch sequence, reads included, so swapping two reads of
   the same variable — independent for POR — changes the signature. The
   invariance the digest actually enjoys is under swaps of operations with
   DISJOINT footprints, which is what [commutes] demands. Second, the law
   quantifies over complete (Ok) executions: a bug halts the run, so
   swapping a step past a bug-raising one changes which events exist at
   all, not merely their order. *)

let promote_all _ = true

let guided order program =
  let remaining = ref order in
  let scheduler (ctx : Sct_core.Runtime.ctx) =
    match !remaining with
    | t :: rest
      when List.exists (Sct_core.Tid.equal t) ctx.Sct_core.Runtime.c_enabled ->
        remaining := rest;
        t
    | _ -> (
        match
          Sct_core.Delay.deterministic_choice
            ~n:ctx.Sct_core.Runtime.c_n_threads
            ~last:ctx.Sct_core.Runtime.c_last
            ~enabled:ctx.Sct_core.Runtime.c_enabled
        with
        | Some t -> t
        | None -> assert false)
  in
  Sct_core.Runtime.exec ~promote:promote_all ~record_decisions:true ~scheduler
    program

let commutes a b =
  (not (Sct_core.Op_depend.global a))
  && (not (Sct_core.Op_depend.global b))
  && (not (Sct_core.Op_depend.dependent a b))
  && List.for_all
       (fun (o, _) -> not (List.mem_assoc o (Sct_core.Op_depend.footprint b)))
       (Sct_core.Op_depend.footprint a)

(* Index of the first adjacent pair of decisions that commute: different
   threads, the second already enabled before the first ran, disjoint
   operation footprints. *)
let swappable decisions =
  let arr = Array.of_list decisions in
  let ok i =
    let a = arr.(i) and b = arr.(i + 1) in
    (not (Sct_core.Tid.equal a.Sct_core.Runtime.d_chosen b.Sct_core.Runtime.d_chosen))
    && List.exists
         (Sct_core.Tid.equal b.Sct_core.Runtime.d_chosen)
         a.Sct_core.Runtime.d_enabled
    && commutes a.Sct_core.Runtime.d_op b.Sct_core.Runtime.d_op
  in
  let rec go i = if i + 1 >= Array.length arr then None else if ok i then Some i else go (i + 1) in
  go 0

let swap_at i order =
  List.mapi
    (fun j t ->
      if j = i then List.nth order (i + 1)
      else if j = i + 1 then List.nth order i
      else t)
    order

let hb_por_law =
  QCheck2.Test.make ~name:"HB signature invariant under commuting swaps"
    ~count:120
    QCheck2.Gen.(int_range 0 5_000)
    (fun seed ->
      let program = Compile.program (Gen.generate ~vocab:Gen.Full ~seed ()) in
      let r = guided [] program in
      if r.Sct_core.Runtime.r_outcome <> Sct_core.Outcome.Ok then true
      else
        let decisions = r.Sct_core.Runtime.r_decisions in
        match swappable decisions with
        | None -> true (* no commuting adjacent pair in this run *)
        | Some i ->
            let order =
              List.map (fun d -> d.Sct_core.Runtime.d_chosen) decisions
            in
            let swapped = guided (swap_at i order) program in
            Sct_explore.Hb_signature.equal
              (Sct_explore.Hb_signature.of_decisions decisions)
              (Sct_explore.Hb_signature.of_decisions swapped.Sct_core.Runtime.r_decisions))

(* ...and a conflicting swap must be allowed to differ — sanity-check that
   the law above is not vacuous because signatures ignore order entirely. *)
let test_signature_not_order_blind () =
  let distinct = ref false in
  let seed = ref 0 in
  while (not !distinct) && !seed < 50 do
    let program = Compile.program (Gen.generate ~vocab:Gen.Full ~seed:!seed ()) in
    let d1 = (guided [] program).Sct_core.Runtime.r_decisions in
    let s1 = Sct_explore.Hb_signature.of_decisions d1 in
    let order = List.map (fun d -> d.Sct_core.Runtime.d_chosen) d1 in
    let d2 = (guided (List.rev order) program).Sct_core.Runtime.r_decisions in
    let s2 = Sct_explore.Hb_signature.of_decisions d2 in
    if not (Sct_explore.Hb_signature.equal s1 s2) then distinct := true;
    incr seed
  done;
  Alcotest.(check bool)
    "some program distinguishes two schedule orders" true !distinct

(* --- shrink idempotence (tie-breaking contract) ------------------------- *)

let test_shrink_idempotent () =
  for seed = 0 to 20 do
    let p = Gen.generate ~vocab:Gen.Full ~seed () in
    let d0 = Signature.digest ~limit:100 ~max_steps:2_000 (Compile.program p) in
    let check q =
      Signature.digest ~limit:100 ~max_steps:2_000 (Compile.program q) = d0
    in
    let once = Shrink.shrink ~check p in
    let twice = Shrink.shrink ~check once in
    if not (Ast.equal once twice) then
      Alcotest.failf "seed %d: shrink is not idempotent" seed
  done

(* --- mining ------------------------------------------------------------- *)

let quick_cfg =
  {
    Mine.default_config with
    Mine.count = 40;
    limit = 120;
    max_steps = 2_000;
    shrink_checks = 20;
    sig_limit = 150;
  }

let digests o =
  List.map (fun (c : Mine.candidate) -> c.Mine.c_digest) o.Mine.o_candidates

let test_mine_deterministic () =
  let a = Mine.run quick_cfg and b = Mine.run quick_cfg in
  Alcotest.(check int) "same programs" a.Mine.o_programs b.Mine.o_programs;
  Alcotest.(check int) "same hard count" a.Mine.o_hard b.Mine.o_hard;
  Alcotest.(check (list string)) "same candidates" (digests a) (digests b)

let test_mine_matches_sharded_probes () =
  (* collect over externally produced probes (the sharded driver's shape)
     equals the sequential campaign *)
  let probes = List.init quick_cfg.Mine.count (Mine.probe quick_cfg) in
  let a = Mine.collect quick_cfg probes and b = Mine.run quick_cfg in
  Alcotest.(check (list string)) "same candidates" (digests a) (digests b);
  Alcotest.(check int) "same duplicates" a.Mine.o_duplicates b.Mine.o_duplicates

(* A fixed productive mine, shared by the promotion / registry / golden
   tests below: seed 11 yields three elusive keepers out of 150. *)
let rich_cfg =
  {
    Mine.default_config with
    Mine.campaign_seed = 11;
    count = 150;
    limit = 300;
    max_steps = 3_000;
  }

let rich_mine = lazy (Mine.run rich_cfg)

let test_rich_mine_is_productive () =
  let o = Lazy.force rich_mine in
  Alcotest.(check bool)
    "the shared mine keeps at least two programs" true
    (List.length o.Mine.o_candidates >= 2)

(* --- hardness and manifest codecs --------------------------------------- *)

let test_hardness_json_roundtrip () =
  let o = Lazy.force rich_mine in
  List.iter
    (fun (c : Mine.candidate) ->
      let h = c.Mine.c_hardness in
      match Hardness.of_json (Hardness.to_json h) with
      | Ok h' ->
          Alcotest.(check bool) "hardness json roundtrip" true (h = h')
      | Error msg -> Alcotest.failf "hardness json roundtrip: %s" msg)
    o.Mine.o_candidates

let test_manifest_roundtrip () =
  let o = Lazy.force rich_mine in
  let m = Manifest.of_mine rich_cfg o.Mine.o_candidates in
  match Manifest.of_string (Manifest.to_string m) with
  | Ok m' -> Alcotest.(check bool) "manifest roundtrip" true (m = m')
  | Error msg -> Alcotest.failf "manifest roundtrip: %s" msg

(* --- promotion ----------------------------------------------------------- *)

let temp_dir prefix =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "%s-%d" prefix (Unix.getpid ()))
  in
  if Sys.file_exists dir then begin
    let rec rm path =
      if Sys.is_directory path then begin
        Array.iter (fun f -> rm (Filename.concat path f)) (Sys.readdir path);
        Sys.rmdir path
      end
      else Sys.remove path
    in
    rm dir
  end;
  dir

let read_file path = In_channel.with_open_bin path In_channel.input_all

let test_promote_load_roundtrip () =
  let o = Lazy.force rich_mine in
  let dir = temp_dir "sct-corpus-rt" in
  let m = Suite_io.write ~dir rich_cfg o.Mine.o_candidates in
  match Suite_io.load ~dir with
  | Error msg -> Alcotest.failf "load: %s" msg
  | Ok (m', programs) ->
      Alcotest.(check bool) "manifest survives the disk" true (m = m');
      List.iter2
        (fun (c : Mine.candidate) ((e : Manifest.entry), ast) ->
          Alcotest.(check string)
            "entry names its candidate" e.Manifest.m_digest c.Mine.c_digest;
          Alcotest.(check bool)
            "program survives the disk" true
            (Ast.equal c.Mine.c_program ast))
        o.Mine.o_candidates programs

let test_promote_is_reproducible () =
  let o = Lazy.force rich_mine in
  let dir = temp_dir "sct-corpus-repro" in
  let m = Suite_io.write ~dir rich_cfg o.Mine.o_candidates in
  let snapshot () =
    read_file (Filename.concat dir Suite_io.manifest_file)
    :: List.map
         (fun (e : Manifest.entry) ->
           read_file (Filename.concat dir e.Manifest.m_file))
         m.Manifest.entries
  in
  let first = snapshot () in
  let _ = Suite_io.write ~dir rich_cfg o.Mine.o_candidates in
  Alcotest.(check (list string))
    "re-promotion is byte-identical" first (snapshot ())

(* --- registry extension -------------------------------------------------- *)

let with_registered f =
  let o = Lazy.force rich_mine in
  let dir = temp_dir "sct-corpus-reg" in
  let _ = Suite_io.write ~dir rich_cfg o.Mine.o_candidates in
  Fun.protect
    ~finally:(fun () -> Sctbench.Registry.reset_extensions ())
    (fun () ->
      match Suite_io.register ~dir () with
      | Error msg -> Alcotest.failf "register: %s" msg
      | Ok benches -> f o dir benches)

let test_register_extends_registry () =
  let static = List.length Sctbench.Registry.all in
  with_registered (fun o _dir benches ->
      Alcotest.(check int)
        "one bench per candidate"
        (List.length o.Mine.o_candidates)
        (List.length benches);
      Alcotest.(check int)
        "the static table is untouched" static
        (List.length Sctbench.Registry.all);
      Alcotest.(check int)
        "full () sees the extension"
        (static + List.length benches)
        (List.length (Sctbench.Registry.full ()));
      List.iteri
        (fun i (b : Sctbench.Bench.t) ->
          Alcotest.(check int)
            "extension ids start at base_id"
            (Suite_io.default_base_id + i)
            b.Sctbench.Bench.id;
          Alcotest.(check bool)
            "extension lands in the corpus suite" true
            (b.Sctbench.Bench.suite = Sctbench.Bench.Corpus);
          match Sctbench.Registry.by_name b.Sctbench.Bench.name with
          | Some b' ->
              Alcotest.(check int) "lookup by name" b.Sctbench.Bench.id
                b'.Sctbench.Bench.id
          | None ->
              Alcotest.failf "by_name misses %s" b.Sctbench.Bench.name)
        benches);
  Alcotest.(check int)
    "reset_extensions restores the static registry" static
    (List.length (Sctbench.Registry.full ()))

let test_register_refuses_clashes () =
  with_registered (fun _o dir _benches ->
      (match Suite_io.register ~dir () with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "re-registering the same corpus must clash");
      match
        Sctbench.Registry.register
          { (List.hd Sctbench.Registry.all) with Sctbench.Bench.id = 9999 }
      with
      | Error _ -> ()
      | Ok () -> Alcotest.fail "a name clash with the static 52 must be refused")

(* --- the stats report golden file ---------------------------------------- *)

let check_golden ~update_env ~file ~what produced =
  match Sys.getenv_opt update_env with
  | Some path ->
      Out_channel.with_open_bin path (fun oc -> output_string oc produced)
  | None ->
      let golden =
        List.find_opt Sys.file_exists
          [
            Filename.concat (Filename.dirname Sys.executable_name) file;
            file;
            Filename.concat "test" file;
          ]
      in
      let golden =
        match golden with
        | Some p -> p
        | None -> Alcotest.fail (file ^ " not found")
      in
      let expected = In_channel.with_open_bin golden In_channel.input_all in
      Alcotest.(check string) (what ^ " byte-identical to golden") expected
        produced

let test_stats_golden () =
  let o = Lazy.force rich_mine in
  let m = Manifest.of_mine rich_cfg o.Mine.o_candidates in
  let buf = Buffer.create 1024 in
  let fmt = Format.formatter_of_buffer buf in
  Report.stats fmt m;
  Format.pp_print_flush fmt ();
  check_golden ~update_env:"SCT_CORPUS_GOLDEN_UPDATE"
    ~file:"corpus_stats_golden.txt" ~what:"corpus stats" (Buffer.contents buf)

let suites =
  [
    ( "corpus.text",
      [
        Alcotest.test_case "to_string/parse round-trips all vocabularies"
          `Quick test_text_roundtrip;
        Alcotest.test_case "malformed inputs are rejected" `Quick
          test_text_rejects;
        Alcotest.test_case "decimal integers, positioned errors" `Quick
          test_text_positioned_errors;
        QCheck_alcotest.to_alcotest prop_text_mutated;
      ] );
    ( "corpus.signature",
      [
        QCheck_alcotest.to_alcotest hb_por_law;
        Alcotest.test_case "signatures distinguish some schedule orders"
          `Quick test_signature_not_order_blind;
      ] );
    ( "corpus.shrink",
      [
        Alcotest.test_case "shrink under digest preservation is idempotent"
          `Quick test_shrink_idempotent;
      ] );
    ( "corpus.mine",
      [
        Alcotest.test_case "mining is deterministic in (seed, count)" `Quick
          test_mine_deterministic;
        Alcotest.test_case "collect over sharded probes = sequential run"
          `Quick test_mine_matches_sharded_probes;
        Alcotest.test_case "the shared fixture mine keeps programs" `Quick
          test_rich_mine_is_productive;
        Alcotest.test_case "hardness json round-trips" `Quick
          test_hardness_json_roundtrip;
        Alcotest.test_case "manifest encode/decode round-trips" `Quick
          test_manifest_roundtrip;
      ] );
    ( "corpus.promote",
      [
        Alcotest.test_case "write/load round-trips programs and manifest"
          `Quick test_promote_load_roundtrip;
        Alcotest.test_case "re-promotion is byte-identical" `Quick
          test_promote_is_reproducible;
        Alcotest.test_case "register extends the registry, 52 untouched"
          `Quick test_register_extends_registry;
        Alcotest.test_case "id and name clashes are refused" `Quick
          test_register_refuses_clashes;
      ] );
    ( "corpus.report",
      [
        Alcotest.test_case "corpus stats matches the golden file" `Quick
          test_stats_golden;
      ] );
  ]
