(* Output checks. A cell's output is its statistics record; its digest is
   the MD5 of the store codec's encoding, which covers every field a table
   or a journal shows. Digests are compared with the ones committed under
   ledger/expected/ for the seeds that have them, and otherwise with the
   first round of the same run; for those seeds every bug witness is also
   replayed. *)

open Sct_explore

let expected_dir = Filename.concat "ledger" "expected"

let digest (s : Stats.t) =
  Digest.to_hex (Digest.string (Sct_store.Codec.encode_stats s))

let cell_id bench technique = bench ^ "/" ^ technique

(* "CS.account_bad/IPB" -> ("CS.account_bad", "IPB") *)
let split_id id =
  match String.rindex_opt id '/' with
  | Some i -> (String.sub id 0 i, String.sub id (i + 1) (String.length id - i - 1))
  | None -> (id, "")

let expected_path ~stem ~seed =
  Filename.concat expected_dir (Printf.sprintf "%s-s%d.txt" stem seed)

let read_expected ~stem ~seed =
  let path = expected_path ~stem ~seed in
  if not (Sys.file_exists path) then None
  else
    let table = Hashtbl.create 512 in
    In_channel.with_open_bin path In_channel.input_lines
    |> List.iter (fun line ->
           match String.split_on_char ' ' (String.trim line) with
           | [ id; d ] -> Hashtbl.replace table id d
           | [ "" ] -> ()
           | _ -> failwith (Printf.sprintf "%s: malformed line %S" path line));
    Some table

let write_expected ~stem ~seed cells =
  let path = expected_path ~stem ~seed in
  Out_channel.with_open_bin path (fun oc ->
      List.iter
        (fun (id, s) -> Printf.fprintf oc "%s %s\n" id (digest s))
        cells);
  path

(* Compares a round's cells with the reference digests; the first round of
   a seed without committed digests becomes the reference. Returns the
   number of cells whose digest differs. *)
let against reference cells =
  List.fold_left
    (fun bad (id, s) ->
      let d = digest s in
      match Hashtbl.find_opt reference id with
      | Some want when want = d -> bad
      | Some want ->
          Printf.eprintf "ledger: %s digest %s, expected %s\n%!" id d want;
          bad + 1
      | None ->
          Hashtbl.replace reference id d;
          bad)
    0 cells

let witnesses cells =
  List.filter_map
    (fun (id, (s : Stats.t)) -> Option.map (fun w -> (id, w)) s.Stats.first_bug)
    cells

(* Replays every first-bug witness strictly under the promotion set its
   campaign ran with. Returns (witnesses replayed, witnesses that did not
   reproduce the same bug by the same thread). *)
let replay_witnesses (o : Techniques.options) witnesses =
  let promotes = Hashtbl.create 64 in
  let promote_of program bench =
    match Hashtbl.find_opt promotes bench with
    | Some p -> p
    | None ->
        let p =
          Sct_race.Promotion.promote (Techniques.detect_races o program)
        in
        Hashtbl.replace promotes bench p;
        p
  in
  List.fold_left
    (fun (n, bad) (id, (w : Stats.bug_witness)) ->
      let bench, _ = split_id id in
      let ok =
        match Sctbench.Registry.by_name bench with
        | None -> false
        | Some b -> (
            let program = b.Sctbench.Bench.program in
            match
              Replay.replay
                ~promote:(promote_of program bench)
                ~max_steps:o.Techniques.max_steps ~strict:true
                ~schedule:w.Stats.w_schedule program
            with
            | Some
                { Sct_core.Runtime.r_outcome = Sct_core.Outcome.Bug { bug; by }; _ }
              ->
                Sct_core.Outcome.bug_equal bug w.Stats.w_bug
                && Sct_core.Tid.equal by w.Stats.w_by
            | Some _ | None -> false)
      in
      if not ok then Printf.eprintf "ledger: %s witness does not replay\n%!" id;
      (n + 1, if ok then bad else bad + 1))
    (0, 0) witnesses
