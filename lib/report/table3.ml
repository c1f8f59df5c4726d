open Sct_explore

let opt_i = function None -> "-" | Some i -> string_of_int i

(* 'L' marks the schedule limit, as in the paper. *)
let count ~limit n = if n >= limit then "L" else string_of_int n

(* An extension column's width, its heading after the technique's name,
   and its cell: the seeded presets show first/bug like Rand, the bounding
   axes b/first/tot/cut/bug. *)
let extension ~limit = function
  | Techniques.PCT | Techniques.SURW ->
      ( 14,
        "first/bug",
        fun s ->
          Printf.sprintf "%s/%d" (opt_i s.Stats.to_first_bug) s.Stats.buggy )
  | _ ->
      ( 26,
        "b/first/tot/cut/bug",
        fun s ->
          Printf.sprintf "%s/%s/%s/%s/%d" (opt_i s.Stats.bound)
            (opt_i s.Stats.to_first_bug)
            (count ~limit s.Stats.total)
            (count ~limit s.Stats.cut_runs)
            s.Stats.buggy )

let print ?(out = Format.std_formatter) ~limit rows =
  let pr fmt = Format.fprintf out fmt in
  (* the extension columns appear only when some row carries their stats,
     so the paper-shaped table (and its goldens) is unchanged unless
     pct/surw/fair/length/ivb/itb were requested *)
  let extensions =
    List.map (fun t -> (t, extension ~limit t)) (Run_data.extensions rows)
  in
  pr "Table 3: systematic and non-systematic testing results (limit %d)@."
    limit;
  pr
    "%-3s %-26s %4s %4s %5s | %-24s | %-24s | %-18s | %-12s | %-12s"
    "id" "name" "thr" "en" "pts" "IPB b/first/tot/new/bug"
    "IDB b/first/tot/new/bug" "DFS first/tot/bug" "Rand first/bug"
    "Maple f?/tot";
  List.iter
    (fun (t, (width, heading, _)) ->
      pr " | %-*s" width (Techniques.name t ^ " " ^ heading))
    extensions;
  pr "@.";
  List.iter
    (fun (row : Run_data.row) ->
      let b = row.Run_data.bench in
      let get t = Run_data.stats_of row t in
      let thr, en, pts = Run_data.shape row in
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
        (fun (t, (width, _, cell)) ->
          pr " | %-*s" width (match get t with None -> "-" | Some s -> cell s))
        extensions;
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
      (* only the cells that ran: a technique left out is no "not found" *)
      let check_ran name t expected =
        if Run_data.stats_of row t <> None then
          check
            (b.Sctbench.Bench.name ^ "/" ^ name)
            expected (Run_data.found_by row t)
      in
      check_ran "IPB" Techniques.IPB (p.Sctbench.Bench.p_ipb_bound <> None);
      check_ran "IDB" Techniques.IDB (p.Sctbench.Bench.p_idb_bound <> None);
      check_ran "DFS" Techniques.DFS p.Sctbench.Bench.p_dfs_found;
      check_ran "Rand" Techniques.Rand p.Sctbench.Bench.p_rand_found;
      check_ran "Maple" Techniques.Maple p.Sctbench.Bench.p_maple_found
      end)
    rows;
  pr "@.Paper-vs-measured bug-finding agreement: %d/%d cells@." !agree !total;
  List.iter (fun d -> pr "  deviation: %s@." d) (List.rev !deviations)
