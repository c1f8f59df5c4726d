(* Order statistics shared by the per-run metrics and the multi-run
   summaries. *)

let sorted l = List.sort Float.compare l |> Array.of_list

let median l =
  let a = sorted l in
  let n = Array.length a in
  if n = 0 then invalid_arg "Summary.median: no samples"
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* The [p]-quantile by linear interpolation between closest ranks (p in
   [0, 1]). *)
let percentile p l =
  let a = sorted l in
  let n = Array.length a in
  if n = 0 then invalid_arg "Summary.percentile: no samples";
  let h = p *. float_of_int (n - 1) in
  let lo = int_of_float h in
  let hi = min (n - 1) (lo + 1) in
  a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))

(* First and third quartile exactly as Python's
   [statistics.quantiles(values, n=4)] (the default "exclusive" method),
   so the spreads printed here are the ones an outside check computes. *)
let quartiles l =
  let a = sorted l in
  let ld = Array.length a in
  if ld = 0 then invalid_arg "Summary.quartiles: no samples"
  else if ld = 1 then (a.(0), a.(0))
  else
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.
    in
    (q 1, q 3)

(* Interquartile distance as a share of the median. *)
let spread l =
  let q1, q3 = quartiles l in
  let m = median l in
  if m = 0. then 0. else (q3 -. q1) /. Float.abs m
