open Sct_explore

let opt_i = function None -> "-" | Some i -> string_of_int i

(* 'L' marks the schedule limit, as in the paper. *)
let count ~limit n = if n >= limit then "L" else string_of_int n

let axes_techniques =
  [ Techniques.Fair; Techniques.Length; Techniques.IVB; Techniques.ITB ]

let print ?(out = Format.std_formatter) ~limit rows =
  let pr fmt = Format.fprintf out fmt in
  (* the bounding-axis columns appear only when some row carries their
     stats, so the paper-shaped table (and its goldens) is unchanged
     unless fair/length/ivb/itb were requested *)
  let axes =
    List.filter
      (fun t ->
        List.exists (fun r -> Run_data.stats_of r t <> None) rows)
      axes_techniques
  in
  pr "Table 3: systematic and non-systematic testing results (limit %d)@."
    limit;
  pr
    "%-3s %-26s %4s %4s %5s | %-24s | %-24s | %-18s | %-12s | %-12s"
    "id" "name" "thr" "en" "pts" "IPB b/first/tot/new/bug"
    "IDB b/first/tot/new/bug" "DFS first/tot/bug" "Rand first/bug"
    "Maple f?/tot";
  List.iter
    (fun t ->
      pr " | %-26s"
        (Techniques.name t ^ " b/first/tot/cut/bug"))
    axes;
  pr "@.";
  List.iter
    (fun (row : Run_data.row) ->
      let b = row.Run_data.bench in
      let get t = Run_data.stats_of row t in
      let thr, en, pts =
        match get Techniques.IDB with
        | Some s ->
            (s.Stats.n_threads, s.Stats.max_enabled, s.Stats.max_sched_points)
        | None -> (0, 0, 0)
      in
      let bounded t =
        match get t with
        | None -> "-"
        | Some s ->
            Printf.sprintf "%s/%s/%s/%s/%d" (opt_i s.Stats.bound)
              (opt_i s.Stats.to_first_bug)
              (count ~limit s.Stats.total)
              (count ~limit s.Stats.new_at_bound)
              s.Stats.buggy
      in
      let dfs =
        match get Techniques.DFS with
        | None -> "-"
        | Some s ->
            let pct =
              if s.Stats.total = 0 then "-"
              else
                Printf.sprintf "%s%d%%"
                  (if s.Stats.hit_limit then "*" else "")
                  (100 * s.Stats.buggy / s.Stats.total)
            in
            Printf.sprintf "%s/%s/%d %s" (opt_i s.Stats.to_first_bug)
              (count ~limit s.Stats.total)
              s.Stats.buggy pct
      in
      let rand =
        match get Techniques.Rand with
        | None -> "-"
        | Some s ->
            Printf.sprintf "%s/%d" (opt_i s.Stats.to_first_bug) s.Stats.buggy
      in
      let maple =
        match get Techniques.Maple with
        | None -> "-"
        | Some s ->
            Printf.sprintf "%s/%d"
              (if Stats.found s then "y" else "n")
              s.Stats.total
      in
      pr "%-3d %-26s %4d %4d %5d | %-24s | %-24s | %-18s | %-12s | %-12s"
        b.Sctbench.Bench.id b.Sctbench.Bench.name thr en pts
        (bounded Techniques.IPB) (bounded Techniques.IDB) dfs rand maple;
      List.iter
        (fun t ->
          let cell =
            match get t with
            | None -> "-"
            | Some s ->
                Printf.sprintf "%s/%s/%s/%s/%d" (opt_i s.Stats.bound)
                  (opt_i s.Stats.to_first_bug)
                  (count ~limit s.Stats.total)
                  (count ~limit s.Stats.cut_runs)
                  s.Stats.buggy
          in
          pr " | %-26s" cell)
        axes;
      pr "@.")
    rows

let print_agreement ?(out = Format.std_formatter) rows =
  let pr fmt = Format.fprintf out fmt in
  let total = ref 0 and agree = ref 0 in
  let deviations = ref [] in
  let check name expected actual =
    incr total;
    if expected = actual then incr agree
    else deviations := Printf.sprintf "%s (paper:%b ours:%b)" name expected actual :: !deviations
  in
  List.iter
    (fun (row : Run_data.row) ->
      let b = row.Run_data.bench in
      if b.Sctbench.Bench.suite = Sctbench.Bench.Yield then ()
        (* the yield-loop family is a study extension with no paper row;
           its recorded expectations are this model's own *)
      else begin
      let p = b.Sctbench.Bench.paper in
      let f t = Run_data.found_by row t in
      let n tech = b.Sctbench.Bench.name ^ "/" ^ tech in
      check (n "IPB") (p.Sctbench.Bench.p_ipb_bound <> None) (f Techniques.IPB);
      check (n "IDB") (p.Sctbench.Bench.p_idb_bound <> None) (f Techniques.IDB);
      check (n "DFS") p.Sctbench.Bench.p_dfs_found (f Techniques.DFS);
      check (n "Rand") p.Sctbench.Bench.p_rand_found (f Techniques.Rand);
      check (n "Maple") p.Sctbench.Bench.p_maple_found (f Techniques.Maple)
      end)
    rows;
  pr "@.Paper-vs-measured bug-finding agreement: %d/%d cells@." !agree !total;
  List.iter (fun d -> pr "  deviation: %s@." d) (List.rev !deviations)
