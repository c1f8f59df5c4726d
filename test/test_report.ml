(* The reporting layer: Venn region computation, Table 2 derivation and the
   printers (smoke-tested against a real mini-run). *)

open Sct_explore

let mini_rows () =
  (* run the full pipeline on three small benchmarks *)
  let o = { Techniques.default_options with Techniques.limit = 800 } in
  let pick name =
    match Sctbench.Registry.by_name name with
    | Some b -> b
    | None -> Alcotest.fail ("missing " ^ name)
  in
  Sct_report.Run_data.run_all o
    [ pick "CS.lazy01_bad"; pick "CS.deadlock01_bad"; pick "splash2.fft" ]

let rows = lazy (mini_rows ())

let test_found_by () =
  let rows = Lazy.force rows in
  List.iter
    (fun row ->
      Alcotest.(check bool)
        (row.Sct_report.Run_data.bench.Sctbench.Bench.name ^ " found by IDB")
        true
        (Sct_report.Run_data.found_by row Techniques.IDB))
    rows

let test_venn_regions_sum () =
  let rows = Lazy.force rows in
  let v = Sct_report.Venn.compute rows Techniques.IPB Techniques.IDB Techniques.DFS in
  let total =
    v.Sct_report.Venn.only_a + v.Sct_report.Venn.only_b
    + v.Sct_report.Venn.only_c + v.Sct_report.Venn.ab + v.Sct_report.Venn.ac
    + v.Sct_report.Venn.bc + v.Sct_report.Venn.abc + v.Sct_report.Venn.none
  in
  Alcotest.(check int) "regions partition the benchmarks" (List.length rows)
    total

let test_idb_superset_ipb () =
  (* the paper's headline: IDB finds everything IPB finds *)
  let rows = Lazy.force rows in
  let v = Sct_report.Venn.compute rows Techniques.IPB Techniques.IDB Techniques.DFS in
  Alcotest.(check int) "nothing found by IPB only" 0 v.Sct_report.Venn.only_a;
  Alcotest.(check int) "nothing found by IPB+DFS without IDB" 0
    v.Sct_report.Venn.ac

let test_table2 () =
  let rows = Lazy.force rows in
  let t = Sct_report.Table2.compute ~limit:800 rows in
  (* lazy01 is buggy on the initial (zero-delay) schedule *)
  Alcotest.(check bool) "at least one DB=0 benchmark" true
    (t.Sct_report.Table2.db0 >= 1);
  Alcotest.(check bool) "counts bounded by row count" true
    (t.Sct_report.Table2.rand_all <= List.length rows)

let capture f =
  let buf = Buffer.create 512 in
  let ppf = Format.formatter_of_buffer buf in
  f ppf;
  Format.pp_print_flush ppf ();
  Buffer.contents buf

let test_printers_produce_output () =
  let rows = Lazy.force rows in
  let t1 = capture (fun out -> Sct_report.Table1.print ~out Sctbench.Registry.all) in
  Alcotest.(check bool) "table1 mentions CHESS" true
    (String.length t1 > 0
    && Astring_contains.contains t1 "work stealing queue");
  let t3 = capture (fun out -> Sct_report.Table3.print ~out ~limit:800 rows) in
  Alcotest.(check bool) "table3 has a row per benchmark" true
    (List.for_all
       (fun r ->
         Astring_contains.contains t3
           r.Sct_report.Run_data.bench.Sctbench.Bench.name)
       rows);
  let f2 = capture (fun out -> Sct_report.Venn.print_figure2 ~out rows) in
  Alcotest.(check bool) "figure2 labels both diagrams" true
    (Astring_contains.contains f2 "Figure 2a"
    && Astring_contains.contains f2 "Figure 2b");
  let f3 =
    capture (fun out -> Sct_report.Figures.print_figure3 ~out ~limit:800 rows)
  in
  Alcotest.(check bool) "figure3 is CSV" true
    (Astring_contains.contains f3 "idb_x,ipb_y");
  let f4 =
    capture (fun out -> Sct_report.Figures.print_figure4 ~out ~limit:800 rows)
  in
  Alcotest.(check bool) "figure4 mentions worst case" true
    (Astring_contains.contains f4 "worst case")

(* Table 3 and the CSV show every cell they ran. A study of the seeded
   techniques alone gets a PCT and a SURW column (a CSV column group each),
   thr/en/pts from its first cell since IDB did not run, and an agreement
   over its Rand cell only: a technique that did not run is no
   "not found". *)
let test_seeded_columns () =
  let limit = 50 in
  let o = { Techniques.default_options with Techniques.limit } in
  let b = Option.get (Sctbench.Registry.by_name "CS.account_bad") in
  let rows =
    Sct_report.Run_data.run_all
      ~techniques:Techniques.[ Rand; PCT; SURW ]
      o [ b ]
  in
  let row = List.hd rows in
  let stats t = Option.get (Sct_report.Run_data.stats_of row t) in
  let first_bug s =
    Printf.sprintf "%s/%d"
      (match s.Stats.to_first_bug with None -> "-" | Some i -> string_of_int i)
      s.Stats.buggy
  in
  let rand = stats Techniques.Rand
  and pct = stats Techniques.PCT
  and surw = stats Techniques.SURW in
  let t3 = capture (fun out -> Sct_report.Table3.print ~out ~limit rows) in
  let has what text needle =
    Alcotest.(check bool) (what ^ ": " ^ needle) true
      (Astring_contains.contains text needle)
  in
  has "table3 heading" t3 "| PCT first/bug  | SURW first/bug";
  has "table3 row" t3
    (Printf.sprintf "%4d %4d %5d |" rand.Stats.n_threads
       rand.Stats.max_enabled rand.Stats.max_sched_points);
  has "table3 row" t3
    (Printf.sprintf "| %-14s | %-14s" (first_bug pct) (first_bug surw));
  let agreement =
    capture (fun out -> Sct_report.Table3.print_agreement ~out rows)
  in
  let paper = b.Sctbench.Bench.paper in
  has "agreement" agreement
    (Printf.sprintf "agreement: %d/1 cells"
       (Bool.to_int (Stats.found rand = paper.Sctbench.Bench.p_rand_found)));
  let csv = capture (fun out -> Sct_report.Csv.table3 ~out ~limit rows) in
  let seeded s =
    Printf.sprintf "%s,%d,%s"
      (match s.Stats.to_first_bug with None -> "" | Some i -> string_of_int i)
      s.Stats.buggy
      (match Stats.distinct s with None -> "" | Some n -> string_of_int n)
  in
  Alcotest.(check string)
    "csv"
    (Printf.sprintf
       "%s,pct_first,pct_buggy,pct_distinct,surw_first,surw_buggy,\
        surw_distinct\n\
        %d,%s,%d,%d,%d,%d,,,,,,,,,,,,,,%s,,,%s,%s\n"
       Sct_report.Csv.header b.Sctbench.Bench.id b.Sctbench.Bench.name
       rand.Stats.n_threads rand.Stats.max_enabled rand.Stats.max_sched_points
       row.Sct_report.Run_data.racy_locations (seeded rand) (seeded pct)
       (seeded surw))
    csv

let suites =
  [
    ( "report",
      [
        Alcotest.test_case "pipeline rows find bugs" `Slow test_found_by;
        Alcotest.test_case "venn regions partition" `Slow
          test_venn_regions_sum;
        Alcotest.test_case "IDB supersedes IPB" `Slow test_idb_superset_ipb;
        Alcotest.test_case "table 2 derivation" `Slow test_table2;
        Alcotest.test_case "printers produce output" `Slow
          test_printers_produce_output;
        Alcotest.test_case "table3 and csv show every cell run" `Quick
          test_seeded_columns;
      ] );
  ]
