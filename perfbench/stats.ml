(* Order statistics shared by every workload.  Percentiles use the
   nearest-rank definition, so a reported value is always one that was
   actually measured. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* 1-based nearest rank of percentile [q10] (tenths of a percent, so
   p99.9 is 999) among [n] samples: ceil (q10 * n / 1000), in integers
   to avoid rounding surprises at exact boundaries *)
let rank ~n q10 = max 1 ((q10 * n + 999) / 1000)

let percentile a q10 =
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.percentile: no samples";
  a.(rank ~n q10 - 1)

let p50 a = percentile a 500

(* samples strictly above the nearest-rank position of [q10] *)
let beyond ~n q10 = n - rank ~n q10

let ladder = [ 999; 990; 950; 900; 750; 500 ]

let label q10 =
  if q10 mod 10 = 0 then Printf.sprintf "p%d" (q10 / 10)
  else Printf.sprintf "p%d.%d" (q10 / 10) (q10 mod 10)

(* The tail a run can support: the highest percentile on [ladder] with at
   least ten samples beyond it.  [None] below 20 samples, where even the
   median has fewer than ten above it. *)
let tail_q10 n = List.find_opt (fun q -> beyond ~n q >= 10) ladder

let mean = function
  | [] -> 0.
  | xs -> List.fold_left ( +. ) 0. xs /. float (List.length xs)

let sum = List.fold_left ( +. ) 0.

let geomean = function
  | [] -> invalid_arg "Stats.geomean: no samples"
  | xs ->
      exp (List.fold_left (fun acc x -> acc +. log x) 0. xs
           /. float (List.length xs))
