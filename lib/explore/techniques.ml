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
  jobs : int;
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
    jobs = 1;
    time_limit = None;
    prefix_batch = false;
    por = None;
    fair_bound = Axes.default_fair_bound;
    length_bound = Axes.default_length_bound;
  }

let deadline_of o = Driver.deadline_of_time_limit o.time_limit

(* Pure STRATEGY registration: which strategy value a technique name
   denotes, under the campaign options. All exploration control flow lives
   in Driver. *)
let strategy ?(promote = fun _ -> false) o technique program =
  match technique with
  | IPB -> Bounded.strategy ~kind:Bounded.Preemption_bounding ()
  | IDB -> Bounded.strategy ~kind:Bounded.Delay_bounding ()
  | DFS -> Dfs.strategy ~bound:Dfs.Unbounded ()
  | Rand -> Random_walk.strategy ~seed:o.seed ()
  | PCT ->
      Pct.strategy ~promote ~max_steps:o.max_steps
        ~change_points:o.pct_change_points ~seed:o.seed program ()
  | Maple ->
      Maple_lite.strategy ~promote ~profile_runs:o.maple_profile_runs
        ~seed:o.seed ()
  | SURW ->
      Surw.strategy ~promote ~max_steps:o.max_steps ~seed:o.seed program ()
  | Fair -> Axes.fair ~bound:o.fair_bound ()
  | Length -> Axes.length ~bound:o.length_bound ()
  | IVB -> Axes.variable ()
  | ITB -> Axes.threads ()

(* Declared parallel plan per technique, consumed by Sct_parallel.Drivers
   and the campaign runner. Again pure registration: the technique only
   names its plan ({!Strategy.sharding}); how shards are dispatched and
   merged lives in lib/parallel. The tree walks and MapleAlg are
   [Sequential]: their cells run whole on one domain. *)
let sharding ?(promote = fun _ -> false) o technique program =
  let deadline = deadline_of o in
  match technique with
  | IPB | IDB | DFS | Maple | Fair | Length | IVB | ITB -> Strategy.Sequential
  | Rand ->
      Random_walk.sharding ~promote ~max_steps:o.max_steps ?deadline
        ~seed:o.seed program
  | PCT ->
      Pct.sharding ~promote ~max_steps:o.max_steps
        ~change_points:o.pct_change_points ?deadline ~seed:o.seed program
  | SURW ->
      Surw.sharding ~promote ~max_steps:o.max_steps ?deadline ~seed:o.seed
        program

(* One match picks the walk. The partial-order reduction and the
   prefix-batching executor exist for the tree walkers DFS, IPB and IDB
   only; every other technique ignores both options. POR wins over
   batching (see por.mli's interaction contract): a cell requesting both
   runs reduced and unbatched, visible as [steps_saved = 0]. A reduced
   walk threads its sleep-pruned-run counter out through [on_prune], and
   the running count is patched into each advance's statistics. Every
   advance takes [o.time_limit] afresh from its own start. *)
let session ?(promote = fun _ -> false) o technique program =
  let max_steps = o.max_steps in
  let driven strategy =
    let s = Driver.start ~promote ~max_steps strategy program in
    fun ~limit -> Driver.advance ?deadline:(deadline_of o) s ~limit
  in
  let reduced strategy =
    let pruned = ref 0 in
    let s =
      Driver.start ~promote ~max_steps
        (strategy (fun () -> incr pruned))
        program
    in
    fun ~limit ->
      (* reduced campaigns budget raw executions too (see Driver.explore) *)
      let st =
        Driver.advance ?deadline:(deadline_of o) ~max_executions:limit s ~limit
      in
      { st with Stats.por_pruned = !pruned }
  in
  let bounded_por kind mode =
    reduced (fun on_prune -> Bounded.strategy ~por:mode ~on_prune ~kind ())
  in
  (* the batched executor keeps no session: each advance re-runs *)
  let bounded_batched kind ~limit =
    Bounded.explore_batched ~promote ~max_steps ?deadline:(deadline_of o)
      ~kind ~limit program
  in
  match (technique, o.por, o.prefix_batch) with
  | DFS, Some mode, _ ->
      reduced (fun on_prune ->
          Por.strategy_of_walk
            (Por.Walk.make ~on_prune ~mode ~bound:Dfs.Unbounded ()))
  | IPB, Some mode, _ -> bounded_por Bounded.Preemption_bounding mode
  | IDB, Some mode, _ -> bounded_por Bounded.Delay_bounding mode
  | DFS, None, true ->
      fun ~limit ->
        Dfs.stats_of ~technique:"DFS"
          (Prefix_exec.explore ~promote ~max_steps ?deadline:(deadline_of o)
             ~bound:Dfs.Unbounded ~limit program)
  | IPB, None, true -> bounded_batched Bounded.Preemption_bounding
  | IDB, None, true -> bounded_batched Bounded.Delay_bounding
  | (DFS | IPB | IDB), None, false
  | (Rand | PCT | Maple | SURW | Fair | Length | IVB | ITB), _, _ ->
      driven (strategy ~promote o technique program)

let run ?promote o technique program =
  session ?promote o technique program ~limit:o.limit

let detect_races o program =
  Sct_race.Promotion.detect ~runs:o.race_runs ~seed:o.seed
    ~max_steps:o.max_steps program

let run_all ?(techniques = all_paper) o program =
  let detection = detect_races o program in
  let promote = Sct_race.Promotion.promote detection in
  let results = List.map (fun t -> (t, run ~promote o t program)) techniques in
  (detection, results)
