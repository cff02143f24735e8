(* Exact order statistics over retained samples.

   Every sample a run measures is kept, so medians, percentiles and
   quartiles are read off the sorted samples themselves rather than
   estimated from binned histograms. *)

type t = float array (* ascending *)

let of_array a =
  let s = Array.copy a in
  Array.sort Float.compare s;
  s

let of_list l = of_array (Array.of_list l)
let count (s : t) = Array.length s

let nonempty what s =
  if Array.length s = 0 then invalid_arg ("Stats." ^ what ^ ": no samples")

let median s =
  nonempty "median" s;
  let n = Array.length s in
  if n mod 2 = 1 then s.(n / 2) else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.0

let mean s =
  nonempty "mean" s;
  Array.fold_left ( +. ) 0.0 s /. float_of_int (Array.length s)

let sum s = Array.fold_left ( +. ) 0.0 s

(* Nearest-rank percentile: the smallest sample with at least [p]% of
   the samples at or below it, so the value is always a measured one. *)
let rank s p =
  if p < 1 || p > 100 then invalid_arg "Stats.percentile: p outside 1..100";
  max 1 (((p * Array.length s) + 99) / 100)

let percentile s p =
  nonempty "percentile" s;
  s.(rank s p - 1)

let beyond s p = Array.length s - rank s p

(* The highest of p99 and p90 with at least ten samples above it; the
   median when neither has (fewer than 100 samples). *)
let tail s =
  nonempty "tail" s;
  match List.find_opt (fun p -> beyond s p >= 10) [ 99; 90 ] with
  | Some p -> (p, percentile s p)
  | None -> (50, median s)

(* Quartiles by the method of Python's [statistics.quantiles(data,
   n=4)] (the default "exclusive" method), so the spread printed here
   is the spread a caller computing it in Python gets. *)
let quartiles s =
  let ld = Array.length s in
  if ld < 2 then invalid_arg "Stats.quartiles: need two samples";
  let m = ld + 1 in
  let q i =
    let j = max 1 (min (ld - 1) (i * m / 4)) in
    let delta = (i * m) - (j * 4) in
    ((s.(j - 1) *. float_of_int (4 - delta)) +. (s.(j) *. float_of_int delta))
    /. 4.0
  in
  (q 1, q 2, q 3)

let spread s =
  let q1, _, q3 = quartiles s in
  (q3 -. q1) /. median s
