type t =
  | IPB
  | IDB
  | DFS
  | Rand
  | PCT
  | Maple
  | SURW
  | Fair
  | Length
  | IVB
  | ITB

let all_paper = [ IPB; IDB; DFS; Rand; Maple ]
let all = [ IPB; IDB; DFS; Rand; PCT; Maple; SURW; Fair; Length; IVB; ITB ]

let name = function
  | IPB -> "IPB"
  | IDB -> "IDB"
  | DFS -> "DFS"
  | Rand -> "Rand"
  | PCT -> "PCT"
  | Maple -> "MapleAlg"
  | SURW -> "SURW"
  | Fair -> "Fair"
  | Length -> "Length"
  | IVB -> "IVB"
  | ITB -> "ITB"

let of_name s =
  match String.lowercase_ascii s with
  | "ipb" -> Some IPB
  | "idb" -> Some IDB
  | "dfs" -> Some DFS
  | "rand" | "random" -> Some Rand
  | "pct" -> Some PCT
  | "maple" | "maplealg" -> Some Maple
  | "surw" -> Some SURW
  | "fair" -> Some Fair
  | "length" -> Some Length
  | "ivb" -> Some IVB
  | "itb" -> Some ITB
  | _ -> None

let valid_names =
  [
    "ipb"; "idb"; "dfs"; "rand"; "pct"; "maple"; "surw"; "fair"; "length";
    "ivb"; "itb";
  ]

let parse_list ?(default = all_paper) specs =
  let names =
    List.concat_map
      (fun spec ->
        List.filter (fun s -> s <> "") (String.split_on_char ',' spec))
      specs
  in
  match (specs, names) with
  | [], _ -> Ok default
  | _, [] ->
      Error
        (Printf.sprintf "no technique names given (valid: %s)"
           (String.concat ", " valid_names))
  | _, names ->
      let rec go seen acc = function
        | [] -> Ok (List.rev acc)
        | n :: rest -> (
            match of_name n with
            | None ->
                Error
                  (Printf.sprintf "unknown technique: %s (valid: %s)" n
                     (String.concat ", " valid_names))
            | Some t ->
                if List.mem t seen then go seen acc rest
                else go (t :: seen) (t :: acc) rest)
      in
      go [] [] names

type options = {
  limit : int;
  seed : int;
  max_steps : int;
  race_runs : int;
  pct_change_points : int;
  maple_profile_runs : int;
  time_limit : float option;
  prefix_batch : bool;
  por : Por.mode option;
  fair_bound : int;
  length_bound : int;
}

let default_options =
  {
    limit = 10_000;
    seed = 0;
    max_steps = 100_000;
    race_runs = 10;
    pct_change_points = 2;
    maple_profile_runs = 10;
    time_limit = None;
    prefix_batch = false;
    por = None;
    fair_bound = 5;
    length_bound = 250;
  }

let deadline_of o = Driver.deadline_of_time_limit o.time_limit

(* Pure STRATEGY registration: what a technique name denotes under the
   campaign options. The seven tree techniques are presets of one bounds
   record and the three seeded ones presets of {!Seeded.t}; MapleAlg
   registers its own strategy. All exploration control flow lives in
   Driver. *)
let registration o technique =
  let tree ?axis ?fair ?length () =
    `Tree { Bounded.name = name technique; axis; fair; length }
  in
  match technique with
  | DFS -> tree ()
  | IPB -> tree ~axis:Bounded.Preemptions ()
  | IDB -> tree ~axis:Bounded.Delays ()
  | Fair -> tree ~axis:Bounded.Preemptions ~fair:o.fair_bound ()
  | Length -> tree ~length:o.length_bound ()
  | IVB -> tree ~axis:Bounded.Variables ()
  | ITB -> tree ~axis:Bounded.Threads ()
  | Rand -> `Seeded Seeded.rand
  | PCT -> `Seeded (Seeded.pct ~change_points:o.pct_change_points)
  | SURW -> `Seeded Seeded.surw
  | Maple -> `Maple

let bounds o technique =
  match registration o technique with
  | `Tree b -> Some b
  | `Seeded _ | `Maple -> None

let strategy ?(promote = fun _ -> false) o technique program =
  match registration o technique with
  | `Tree b -> Bounded.strategy b
  | `Seeded p ->
      Seeded.strategy ~promote ~max_steps:o.max_steps ~seed:o.seed p program
  | `Maple ->
      Maple_lite.strategy ~promote ~profile_runs:o.maple_profile_runs
        ~seed:o.seed ()

(* The shape of the registration picks the walk. A seeded preset runs
   its run ranges on {!Seeded.session}, which may fan them out and start
   after a record. The partial-order reduction and the prefix-batch step
   counter take bounds with no filter and no footprint axis, which are
   exactly DFS, IPB and IDB; every other technique ignores both options.
   POR wins over batching (see por.mli's interaction contract): a cell
   requesting both runs reduced and unbatched, visible as
   [steps_saved = 0]. A reduced walk threads its sleep-pruned-run counter
   out through [on_prune], a batched one its saved steps through each
   walk's observer, and the running count is patched into each advance's
   statistics. Every advance takes [o.time_limit] afresh from its own
   start. *)
let session ?(promote = fun _ -> false) ?fan_out ?from o technique program =
  let max_steps = o.max_steps in
  let plain_tree = function
    | {
        Bounded.fair = None;
        length = None;
        axis = None | Some (Bounded.Preemptions | Bounded.Delays);
        _;
      } ->
        true
    | _ -> false
  in
  match (registration o technique, o.por, o.prefix_batch) with
  | `Seeded p, _, _ ->
      let advance =
        Seeded.session ~promote ~max_steps ?fan_out ?from ~seed:o.seed p
          program
      in
      fun ~limit -> advance ~deadline:(deadline_of o) ~limit
  | `Tree b, Some mode, _ when plain_tree b ->
      let pruned = ref 0 in
      let s =
        Driver.start ~promote ~max_steps
          (Bounded.strategy ~por:mode ~on_prune:(fun () -> incr pruned) b)
          program
      in
      fun ~limit ->
        (* reduced campaigns budget raw executions too (see Driver.explore) *)
        let st =
          Driver.advance ?deadline:(deadline_of o) ~max_executions:limit s
            ~limit
        in
        { st with Stats.por_pruned = !pruned }
  | `Tree b, None, true when plain_tree b ->
      let saved = ref 0 in
      let s =
        Driver.start ~promote ~max_steps
          (Bounded.strategy ~on_walk:(Prefix_exec.observer saved) b)
          program
      in
      fun ~limit ->
        let st = Driver.advance ?deadline:(deadline_of o) s ~limit in
        {
          st with
          Stats.steps_executed = st.Stats.steps_executed - !saved;
          steps_saved = !saved;
        }
  | _ ->
      let s =
        Driver.start ~promote ~max_steps (strategy ~promote o technique program)
          program
      in
      fun ~limit -> Driver.advance ?deadline:(deadline_of o) s ~limit

let run ?promote ?fan_out o technique program =
  session ?promote ?fan_out o technique program ~limit:o.limit

let detect_races o program =
  Sct_race.Promotion.detect ~runs:o.race_runs ~seed:o.seed
    ~max_steps:o.max_steps program

let run_all ?(techniques = all_paper) o program =
  let detection = detect_races o program in
  let promote = Sct_race.Promotion.promote detection in
  let results = List.map (fun t -> (t, run ~promote o t program)) techniques in
  (detection, results)
