(* Summary statistics with the rules every metric of the benchmark follows.

   - Quartiles use the "exclusive" method of Python's
     [statistics.quantiles(values, n=4)], so a spread computed here is the
     spread anyone recomputes from the printed values with Python.
   - A tail percentile is the nearest-rank value, and is refused when
     fewer than [min_beyond] samples lie beyond it: p95 needs 200
     samples, so a tail claim always rests on at least ten of them. *)

let min_beyond = 10

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* statistics.quantiles(data, n=4, method="exclusive"): cut points
   i/4 of the way through n+1 evenly spaced positions, clamped to the
   data, linearly interpolated. *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld < 2 then invalid_arg "Stats.quartiles: need at least two samples";
  let m = ld + 1 in
  List.map
    (fun i ->
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.)
    [ 1; 2; 3 ]
  |> function
  | [ q1; q2; q3 ] -> (q1, q2, q3)
  | _ -> assert false

let median xs =
  match xs with
  | [] -> invalid_arg "Stats.median: no samples"
  | [ x ] -> x
  | _ ->
    let _, q2, _ = quartiles xs in
    q2

(* Interquartile distance as a share of the median. *)
let spread xs =
  let q1, q2, q3 = quartiles xs in
  if q2 = 0. then 0. else (q3 -. q1) /. Float.abs q2

(* Nearest-rank percentile: the smallest sample with at least [p]% of
   the samples at or below it.  [Error] when fewer than [min_beyond]
   samples lie above its rank. *)
let percentile xs p =
  let a = sorted xs in
  let n = Array.length a in
  let rank = max 1 (int_of_float (Float.ceil (p /. 100. *. float_of_int n))) in
  if n = 0 then Error "no samples"
  else if n - rank < min_beyond then
    Error
      (Printf.sprintf "p%g of %d samples has %d beyond it (need %d)" p n (n - rank)
         min_beyond)
  else Ok a.(rank - 1)

(* The fewest samples for which [percentile xs p] answers. *)
let samples_for p = int_of_float (Float.ceil (float_of_int min_beyond /. (1. -. (p /. 100.))))
