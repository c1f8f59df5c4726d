open Sct_explore

let header =
  "id,name,threads,max_enabled,max_points,racy_locations,"
  ^ "ipb_bound,ipb_first,ipb_total,ipb_new,ipb_buggy,"
  ^ "idb_bound,idb_first,idb_total,idb_new,idb_buggy,"
  ^ "dfs_first,dfs_total,dfs_buggy,rand_first,rand_buggy,rand_distinct,"
  ^ "maple_found,maple_total"

let opt = function None -> "" | Some i -> string_of_int i

let seeded s =
  Printf.sprintf "%s,%d,%s" (opt s.Stats.to_first_bug) s.Stats.buggy
    (opt (Stats.distinct s))

(* An extension's column group: the seeded presets' fields are Rand's,
   the bounding axes' Table 3's b/first/tot/cut/bug. *)
let extension = function
  | Techniques.PCT | Techniques.SURW ->
      ([ "first"; "buggy"; "distinct" ], seeded)
  | _ ->
      ( [ "bound"; "first"; "total"; "cut"; "buggy" ],
        fun s ->
          Printf.sprintf "%s,%s,%d,%d,%d" (opt s.Stats.bound)
            (opt s.Stats.to_first_bug) s.Stats.total s.Stats.cut_runs
            s.Stats.buggy )

let table3 ?(out = Format.std_formatter) ~limit rows =
  ignore limit;
  let groups =
    List.map
      (fun t ->
        let fields, cell = extension t in
        let prefix = String.lowercase_ascii (Techniques.name t) ^ "_" in
        (t, (List.map (( ^ ) prefix) fields, cell)))
      (Run_data.extensions rows)
  in
  Format.fprintf out "%s@."
    (String.concat ","
       (header :: List.concat_map (fun (_, (fields, _)) -> fields) groups));
  List.iter
    (fun (row : Run_data.row) ->
      let b = row.Run_data.bench in
      let get t = Run_data.stats_of row t in
      let thr, en, pts = Run_data.shape row in
      let bounded t =
        match get t with
        | None -> ",,,,"
        | Some s ->
            Printf.sprintf "%s,%s,%d,%d,%d" (opt s.Stats.bound)
              (opt s.Stats.to_first_bug) s.Stats.total s.Stats.new_at_bound
              s.Stats.buggy
      in
      let dfs =
        match get Techniques.DFS with
        | None -> ",,"
        | Some s ->
            Printf.sprintf "%s,%d,%d" (opt s.Stats.to_first_bug) s.Stats.total
              s.Stats.buggy
      in
      let rand =
        match get Techniques.Rand with None -> ",," | Some s -> seeded s
      in
      let maple =
        match get Techniques.Maple with
        | None -> ","
        | Some s ->
            Printf.sprintf "%b,%d" (Stats.found s) s.Stats.total
      in
      Format.fprintf out "%d,%s,%d,%d,%d,%d,%s,%s,%s,%s,%s"
        b.Sctbench.Bench.id b.Sctbench.Bench.name thr en pts
        row.Run_data.racy_locations (bounded Techniques.IPB)
        (bounded Techniques.IDB) dfs rand maple;
      List.iter
        (fun (t, (fields, cell)) ->
          Format.fprintf out ",%s"
            (match get t with
            | None -> String.make (List.length fields - 1) ','
            | Some s -> cell s))
        groups;
      Format.fprintf out "@.")
    rows
