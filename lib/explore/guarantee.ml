type t =
  | Verified
  | Bounded of { kind : [ `Preemptions | `Delays ]; bound : int }
  | Falsified of { bound : int option }
  | None_

let of_stats (s : Stats.t) =
  if Stats.found s then Falsified { bound = s.Stats.bound }
  else if s.Stats.technique = "MapleAlg" then
    (* MapleAlg's [complete] means every candidate was attempted (its
       heuristic termination), not that the schedule space was exhausted *)
    None_
  else if s.Stats.complete then Verified
  else
    let kind =
      match s.Stats.technique with
      | "IPB" -> Some `Preemptions
      | "IDB" -> Some `Delays
      | _ -> None
    in
    match (kind, s.Stats.bound) with
    | Some kind, Some reached ->
        (* the reached level is fully explored only if [bound_complete];
           otherwise the guarantee stops at the previous level *)
        let covered = if s.Stats.bound_complete then reached else reached - 1 in
        if covered >= 0 then Bounded { kind; bound = covered } else None_
    | _ -> None_

let pp ppf = function
  | Verified ->
      Format.pp_print_string ppf
        "verified: the entire schedule space was explored without a bug"
  | Bounded { kind; bound } ->
      let k = match kind with `Preemptions -> "preemption" | `Delays -> "delay" in
      Format.fprintf ppf
        "all schedules with at most %d %ss explored: any remaining bug needs \
         at least %d %ss"
        bound k (bound + 1) k
  | Falsified { bound = Some b } ->
      Format.fprintf ppf "falsified: bug found at bound %d" b
  | Falsified { bound = None } -> Format.pp_print_string ppf "falsified: bug found"
  | None_ -> Format.pp_print_string ppf "no coverage guarantee"

let to_string t = Format.asprintf "%a" pp t
