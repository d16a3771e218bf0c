(* Order statistics for the benchmark's reports.

   [cut] reproduces the default ("exclusive") method of Python's
   [statistics.quantiles] exactly — including its linear extrapolation
   past the ends of very small samples — so the benchmark's own
   percentiles and the spread arithmetic that judges its runs agree. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* The [i]-th of the [n - 1] cut points dividing sorted [a] into [n]
   groups of equal probability. *)
let cut a ~n ~i =
  let ld = Array.length a in
  if ld = 0 then invalid_arg "Stats.cut: no samples";
  if ld = 1 then a.(0)
  else
    let m = ld + 1 in
    let j = max 1 (min (ld - 1) (i * m / n)) in
    let delta = (i * m) - (j * n) in
    ((a.(j - 1) *. float_of_int (n - delta)) +. (a.(j) *. float_of_int delta))
    /. float_of_int n

(* The [pct]-th percentile, [pct] a whole number in 1..99. *)
let percentile xs pct = cut (sorted xs) ~n:100 ~i:pct

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.median: no samples";
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* The fastest time of every step over [runs], each an array of the same
   steps' times. When every run does the same work step for step, a
   step's minimum is its cost on an undisturbed host: other tenants of a
   shared host slow stretches of up to a minute by up to 2x, but over
   many runs each step is also timed in a stretch that nothing slowed. *)
let fastest_steps runs =
  match runs with
  | [] -> invalid_arg "Stats.fastest_steps: no runs"
  | first :: _ ->
      Array.mapi
        (fun k _ ->
          List.fold_left (fun acc a -> Float.min acc a.(k)) infinity runs)
        first

let total = Array.fold_left ( +. ) 0.
