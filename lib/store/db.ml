module Stats = Sct_explore.Stats
module Techniques = Sct_explore.Techniques

type entry = {
  e_bench : string;
  e_technique : string;
  e_racy : int;
  e_stats : Stats.t;
  e_witness : string option;
  e_progress : Codec.progress option;
}

type t = {
  t_dir : string;
  journal : string;
  mutable chan : out_channel option;
  line : Buffer.t;  (** every journal line is printed here, then output *)
  tbl : (string, entry) Hashtbl.t;
  mutable order : string list;  (** reverse insertion order of distinct keys *)
  mutable needs_newline : bool;
      (** recovery left a torn final record with no trailing newline *)
}

let dir t = t.t_dir
let artifacts_dir t = Filename.concat t.t_dir "artifacts"
let journal_file dir = Filename.concat dir "journal.jsonl"

let fingerprint ~bench ~technique (o : Techniques.options) =
  Json.to_string
    (Json.Obj
       ([
          ("v", Json.Int Codec.version);
          ("bench", Json.Str bench);
          ("technique", Json.Str technique);
          ("limit", Json.Int o.Techniques.limit);
          ("seed", Json.Int o.Techniques.seed);
          ("max_steps", Json.Int o.Techniques.max_steps);
          ("race_runs", Json.Int o.Techniques.race_runs);
          ("pct_change_points", Json.Int o.Techniques.pct_change_points);
          ("maple_profile_runs", Json.Int o.Techniques.maple_profile_runs);
        ]
      (* emitted only when set, so deadline-free fingerprints are stable
         across versions; a wall-clock limit makes the cell's statistics
         timing-dependent, so such cells never alias deadline-free ones *)
      @ (match o.Techniques.time_limit with
        | None -> []
        | Some s -> [ ("time_limit", Codec.time_limit_to_json s) ])
      @ (* also only-when-on: a batched cell's step counters differ from the
           unbatched cell's, so the two must never alias *)
      (if o.Techniques.prefix_batch then [ ("prefix_batch", Json.Bool true) ]
       else [])
      @ (* only-when-set: a reduced cell explores a different schedule set,
           so it must never alias the plain cell (and POR-free fingerprints
           stay byte-identical to pre-POR stores). Recorded even alongside
           [prefix_batch] — the run falls back to unbatched, but the request
           is part of the cell's identity *)
      (match o.Techniques.por with
      | None -> []
      | Some m -> [ ("por", Json.Str (Sct_explore.Por.mode_name m)) ])
      @ (* only-when-non-default, so pre-axes fingerprints are unchanged;
           a Fair/Length cell at a different bound explores a different
           schedule set and must never alias *)
      (if o.Techniques.fair_bound <> Techniques.default_options.fair_bound then
         [ ("fair_bound", Json.Int o.Techniques.fair_bound) ]
       else [])
      @
      if o.Techniques.length_bound <> Techniques.default_options.length_bound
      then [ ("length_bound", Json.Int o.Techniques.length_bound) ]
      else []))
  |> Digest.string |> Digest.to_hex

(* The "progress" field is emitted only on campaign records, so cells
   written by the one-shot study runner keep the version-1 wire format
   byte-for-byte. *)
let add_entry buf key e =
  Json.add_member buf '{' "v";
  Json.add_int buf Codec.version;
  Json.add_member buf ',' "key";
  Json.add_string buf key;
  Json.add_member buf ',' "bench";
  Json.add_string buf e.e_bench;
  Json.add_member buf ',' "technique";
  Json.add_string buf e.e_technique;
  Json.add_member buf ',' "racy";
  Json.add_int buf e.e_racy;
  Json.add_member buf ',' "stats";
  Codec.add_stats buf e.e_stats;
  Json.add_member buf ',' "witness";
  (match e.e_witness with
  | None -> Buffer.add_string buf "null"
  | Some d -> Json.add_string buf d);
  (match e.e_progress with
  | None -> ()
  | Some p ->
      Json.add_member buf ',' "progress";
      Json.add buf (Codec.progress_to_json p));
  Buffer.add_char buf '}'

let entry_to_line key e =
  let buf = Buffer.create 256 in
  add_entry buf key e;
  Buffer.contents buf

(* A record above this size gives the buffer's capacity back once it is
   written: a paper-limit Rand record is tens of MB, and the store would
   otherwise hold that much until it closes. *)
let line_keep = 1 lsl 20

(* One record and its newline, printed into the store's buffer and written
   to [oc], so that writing a journal line allocates no string. *)
let output_line t oc key e =
  Buffer.clear t.line;
  add_entry t.line key e;
  Buffer.add_char t.line '\n';
  Buffer.output_buffer oc t.line;
  if Buffer.length t.line > line_keep then Buffer.reset t.line

(* [None] on any malformed line: the only way a record can be malformed is a
   write torn by a crash (or a foreign line), and resuming past it merely
   re-executes that cell. *)
let entry_of_line line =
  let stats = ref None in
  match
    let r = Json.reader line in
    let j =
      Codec.read_object r
        [ ("stats", fun r -> stats := Some (Codec.read_stats r)) ]
    in
    Json.finish r;
    Codec.check_version j;
    ( Codec.get_string (Codec.field j "key"),
      {
        e_bench = Codec.get_string (Codec.field j "bench");
        e_technique = Codec.get_string (Codec.field j "technique");
        e_racy = Codec.get_int (Codec.field j "racy");
        e_stats = Codec.streamed j "stats" !stats;
        e_witness = Codec.opt_field j "witness" Codec.get_string;
        e_progress = Codec.opt_field j "progress" Codec.progress_of_json;
      } )
  with
  | entry -> Some entry
  | exception (Json.Parse_error _ | Codec.Error _) -> None

let remember t key e =
  if not (Hashtbl.mem t.tbl key) then t.order <- key :: t.order;
  Hashtbl.replace t.tbl key e

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir then mkdir_p parent;
    try Sys.mkdir dir 0o755
    with Sys_error _ when Sys.file_exists dir -> ()
  end

exception Key of string

(* The key of a record this program wrote, read off its first two members
   ([v], then [key]) without decoding the rest; [line] may be just the
   record's first bytes. [None] for any other line, and where those bytes
   end before the key does. Where it is [Some k], a line that decodes
   decodes under [k]: the decoder reads the object's first [key] member. *)
let key_of_line line =
  let r = Json.reader line in
  let n = ref 0 in
  match
    Json.iter_object r (fun name r ->
        incr n;
        match (!n, name) with
        | 1, "v" -> Json.skip_value r
        | 2, "key" -> (
            match Json.read_value r with
            | Json.Str k -> raise_notrace (Key k)
            | _ -> raise_notrace Exit)
        | _ -> raise_notrace Exit)
  with
  | () -> None
  | exception Key k -> Some k
  | exception (Exit | Json.Parse_error _) -> None

(* Enough of a line to hold the [v] and [key] members this program writes
   first; a key is a 32-digit digest. *)
let head_max = 256

(* The first newline of [chunk] in [p, n), or [n]. *)
let rec newline chunk p n =
  if p >= n || Bytes.unsafe_get chunk p = '\n' then p
  else newline chunk (p + 1) n

(* [f start stop head] for each line of [ic], read from its start, where
   the line spans the offsets [start, stop) before its newline and [head]
   is its first [head_max] bytes or fewer. The channel is read in chunks,
   so that no longer line is ever held. *)
let iter_heads ic f =
  let chunk = Bytes.create 65536 and head = Buffer.create head_max in
  (* the chunk's bytes [p, q) continue the current line *)
  let take p q =
    Buffer.add_subbytes head chunk p
      (min (q - p) (head_max - Buffer.length head))
  in
  let rec read start base =
    let n = input ic chunk 0 (Bytes.length chunk) in
    let rec split start p =
      let j = newline chunk p n in
      take p j;
      if j = n then start
      else begin
        f start (base + j) (Buffer.contents head);
        Buffer.clear head;
        split (base + j + 1) (j + 1)
      end
    in
    if n > 0 then read (split start 0) (base + n)
    else if start < base then f start base (Buffer.contents head)
  in
  read 0 0

(* Each key reads as its latest record that decodes, placed at its first
   record that decodes. A first pass reads where each line starts and
   ends and, off its head, its key; a line whose head gives none is
   decoded in full to learn it. Then each key's lines are decoded from the
   latest back until one decodes, and from the first forward until one
   decodes, so that the records between those two are never decoded.
   Lines are read one at a time, so neither the whole journal nor a split
   copy of it is ever held. *)
let read_journal t ic =
  let len = in_channel_length ic in
  if len > 0 then begin
    seek_in ic (len - 1);
    t.needs_newline <- input_char ic <> '\n';
    seek_in ic 0
  end;
  let heads = ref [] in
  iter_heads ic (fun start stop head ->
      heads := (start, stop, key_of_line head) :: !heads);
  let line_at start stop =
    seek_in ic start;
    entry_of_line (really_input_string ic (stop - start))
  in
  (* each key's lines, latest first, each with how to decode it *)
  let lines = Hashtbl.create 64 in
  let note key start decode =
    let ls = Option.value (Hashtbl.find_opt lines key) ~default:[] in
    Hashtbl.replace lines key ((start, decode) :: ls)
  in
  List.iter
    (fun (start, stop, key) ->
      match key with
      | Some key ->
          note key start (fun () -> Option.map snd (line_at start stop))
      | None -> (
          match line_at start stop with
          | Some (key, e) -> note key start (fun () -> Some e)
          | None -> ()))
    (List.rev !heads);
  let rec latest = function
    | [] -> None
    | (start, decode) :: older -> (
        match decode () with Some e -> Some (start, e) | None -> latest older)
  in
  (* the first of the lines that decodes, at the latest the winner's [w] *)
  let rec earliest w = function
    | (start, decode) :: later when start < w ->
        if Option.is_some (decode ()) then start else earliest w later
    | _ -> w
  in
  Hashtbl.fold
    (fun key ls placed ->
      match latest ls with
      | Some (w, e) -> (earliest w (List.rev ls), key, e) :: placed
      | None -> placed)
    lines []
  |> List.sort (fun (a, _, _) (b, _, _) -> Int.compare a b)
  |> List.iter (fun (_, key, e) -> remember t key e)

let open_ ~dir =
  mkdir_p dir;
  let journal = journal_file dir in
  let t =
    {
      t_dir = dir;
      journal;
      chan = None;
      line = Buffer.create 4096;
      tbl = Hashtbl.create 64;
      order = [];
      needs_newline = false;
    }
  in
  if Sys.file_exists journal then begin
    let ic = open_in_bin journal in
    Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () ->
        read_journal t ic)
  end;
  t

let channel t =
  match t.chan with
  | Some oc -> oc
  | None ->
      let oc =
        open_out_gen
          [ Open_wronly; Open_append; Open_creat; Open_binary ]
          0o644 t.journal
      in
      if t.needs_newline then begin
        output_char oc '\n';
        t.needs_newline <- false
      end;
      t.chan <- Some oc;
      oc

let add t ~key entry =
  let oc = channel t in
  output_line t oc key entry;
  flush oc;
  remember t key entry

let record ?progress t ~key ~bench ~technique ~racy ~options (stats : Stats.t)
    =
  let e_witness =
    match stats.Stats.first_bug with
    | None -> None
    | Some w ->
        let a =
          Artifact.make ~bench ~technique ~options ~bound:stats.Stats.bound w
        in
        let (_ : string) = Artifact.save ~dir:(artifacts_dir t) a in
        Some a.Artifact.digest
  in
  add t ~key
    { e_bench = bench; e_technique = technique; e_racy = racy;
      e_stats = stats; e_witness; e_progress = progress }

let finished e =
  match e.e_progress with None -> true | Some p -> p.Codec.p_done
let find_any t key = Hashtbl.find_opt t.tbl key

(* The legacy lookups see only finished cells: a resumed [run]/[table3]
   treats an in-flight campaign cell as missing and re-executes it in
   full, which is always sound. *)
let find t key =
  match Hashtbl.find_opt t.tbl key with
  | Some e when finished e -> Some e
  | _ -> None

let mem t key = find t key <> None
let is_empty t = Hashtbl.length t.tbl = 0

let entries_any t = List.rev_map (fun k -> (k, Hashtbl.find t.tbl k)) t.order

let entries t = List.filter (fun (_, e) -> finished e) (entries_any t)
let size t = List.length (entries t)

let close t =
  match t.chan with
  | Some oc ->
      close_out oc;
      t.chan <- None
  | None -> ()

(* --- merging worker stores --- *)

(* Every record of one fingerprint is a snapshot along the same
   deterministic trajectory (the cell's options pin the seed and the
   exploration order), so two records for one key are always comparable:
   one has explored at least as far as the other. The join keeps the most
   advanced snapshot — a finished record over any in-flight one, then the
   larger banked budget — with the encoded journal line as a final
   tie-break so the order is total. A total-order max is associative,
   commutative and idempotent, which makes [merge_from] a lattice join on
   stores: merging in any grouping or order, or merging a store into
   itself, yields the same store. *)
let join_entries ~key a b =
  let rank e =
    ( (if finished e then 1 else 0),
      e.e_stats.Stats.total,
      (match e.e_progress with
      | None -> max_int
      | Some p -> p.Codec.p_consumed),
      entry_to_line key e )
  in
  if rank a >= rank b then a else b

let copy_artifacts ~src ~dst =
  if Sys.file_exists src then
    Sys.readdir src |> Array.to_list |> List.sort String.compare
    |> List.iter (fun f ->
           if Filename.check_suffix f ".sched" && f.[0] <> '.' then begin
             let ic = open_in_bin (Filename.concat src f) in
             let content =
               Fun.protect
                 ~finally:(fun () -> close_in_noerr ic)
                 (fun () -> really_input_string ic (in_channel_length ic))
             in
             let (_ : string) = Artifact.write_atomic ~dir:dst ~file:f content in
             ()
           end)

let merge_from t ~src =
  copy_artifacts ~src:(artifacts_dir src) ~dst:(artifacts_dir t);
  List.iter
    (fun (key, e) ->
      match find_any t key with
      | None -> add t ~key e
      | Some existing ->
          let joined = join_entries ~key existing e in
          if joined != existing then add t ~key joined)
    (entries_any src)

(* --- journal compaction --- *)

let compact t =
  close t;
  let tmp = Filename.concat t.t_dir ".journal.jsonl.tmp" in
  let oc = open_out_bin tmp in
  (try
     List.iter
       (fun (key, e) -> output_line t oc key e)
       (entries_any t);
     close_out oc
   with exn ->
     close_out_noerr oc;
     (try Sys.remove tmp with Sys_error _ -> ());
     raise exn);
  Sys.rename tmp t.journal;
  t.needs_newline <- false
