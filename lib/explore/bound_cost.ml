open Sct_core

type shape = Free | Preemptions | Delays

let cost shape (ctx : Runtime.ctx) t =
  match shape with
  | Free -> 0
  | Preemptions -> Runtime.preemption_cost ctx.c_rt t
  | Delays -> Runtime.delay_cost ctx.c_rt t

let rec take k = function
  | x :: tl when k > 0 -> x :: take (k - 1) tl
  | _ -> []

let candidates shape ~budget ~n ~last ~enabled =
  let order = Delay.rr_order ~n ~last ~enabled in
  (* how many leading children of [order] fit the budget: the head always
     costs nothing, the [k]-th child [k] delays, and a non-head child one
     preemption exactly when the head is [last] *)
  let fits =
    if budget < 0 then 0
    else
      match (shape, last, order) with
      | Free, _, _ | _, None, _ -> max_int
      | Preemptions, Some l, h :: _ when budget = 0 && Tid.equal h l -> 1
      | Preemptions, _, _ -> max_int
      | Delays, Some _, _ -> if budget = max_int then max_int else budget + 1
  in
  if fits = max_int || List.compare_length_with order fits <= 0 then
    (order, false)
  else (take fits order, true)
