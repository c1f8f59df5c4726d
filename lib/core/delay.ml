let mem t l = List.exists (Tid.equal t) l

let delays ~n ~last ~enabled t =
  match (last, enabled) with
  | None, _ -> 0
  | Some _, [ only ] when Tid.equal only t ->
      (* t = last is forced here whenever last is still enabled, so the
         circular gap from last to t contains no enabled thread *)
      0
  | Some l, _ ->
      let d = Tid.distance ~n l t in
      let count = ref 0 in
      for x = 0 to d - 1 do
        if mem ((l + x) mod n) enabled then incr count
      done;
      !count

let count ~n_at ~steps =
  let _, dc, _ =
    List.fold_left
      (fun (i, dc, last) (enabled, chosen) ->
        let n = n_at i in
        (i + 1, dc + delays ~n ~last ~enabled chosen, Some chosen))
      (0, 0, None) steps
  in
  dc

let rec ascending = function
  | a :: (b :: _ as tl) -> a <= b && ascending tl
  | [ _ ] | [] -> true

let rec drop_below s = function
  | x :: tl when x < s -> drop_below s tl
  | l -> l

let rec take_below s = function
  | x :: tl when x < s -> x :: take_below s tl
  | _ -> []

(* Round-robin order from [last] is the ascending list rotated to start at
   the first thread >= [last]: distance grows with the id up to [n - 1],
   then wraps to the threads below [last]. *)
let rr_order ~n:_ ~last ~enabled =
  match enabled with
  | [] | [ _ ] -> enabled
  | _ -> (
      let enabled =
        if ascending enabled then enabled else List.sort Int.compare enabled
      in
      match last with
      | None -> enabled
      | Some s -> (
          match drop_below s enabled with
          | [] -> enabled
          | rest when rest == enabled -> enabled
          | rest -> rest @ take_below s enabled))

let deterministic_choice ~n ~last ~enabled =
  match rr_order ~n ~last ~enabled with [] -> None | t :: _ -> Some t
