(* Order statistics shared by the benchmark and the comparison tool. *)

let sorted a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

(* The lower median: always an element of the sample. *)
let median a =
  if Array.length a = 0 then invalid_arg "Stats.median: no samples";
  (sorted a).((Array.length a - 1) / 2)

(* Nearest-rank percentile: with N samples, p99 leaves N/100 samples
   above it. *)
let percentile p a =
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.percentile: no samples";
  let s = sorted a in
  let k = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
  s.(max 0 (min (n - 1) (k - 1)))

(* First and third quartile by the same rule as Python's
   statistics.quantiles(values, n=4) (the "exclusive" method), so the
   spreads printed here match the ones a reader recomputes. *)
let quartiles a =
  let n = Array.length a in
  if n < 2 then invalid_arg "Stats.quartiles: need two samples";
  let s = sorted a in
  let q i =
    let m = n + 1 in
    let j = max 1 (min (n - 1) (i * m / 4)) in
    let delta = (i * m) - (j * 4) in
    ((s.(j - 1) *. float_of_int (4 - delta)) +. (s.(j) *. float_of_int delta))
    /. 4.
  in
  (q 1, q 3)

let py_median a =
  let s = sorted a in
  let n = Array.length s in
  if n mod 2 = 1 then s.(n / 2) else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.
