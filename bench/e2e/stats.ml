(* Order statistics over wall-clock samples. *)

let sorted a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile, [p] in (0, 1]; 0 for an empty sample. *)
let percentile a p =
  let n = Array.length a in
  if n = 0 then 0.0
  else
    let s = sorted a in
    let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
    s.(max 0 (min (n - 1) (rank - 1)))

let median a = percentile a 0.5
let sum a = Array.fold_left ( +. ) 0.0 a

(* First and third quartile by Python's [statistics.quantiles(values,
   n=4)] (the default "exclusive" method), the spread the benchmark's
   acceptance rule is written in. *)
let quartiles a =
  let s = sorted a in
  let ld = Array.length s in
  if ld = 0 then (0.0, 0.0)
  else if ld = 1 then (s.(0), s.(0))
  else
    let q i =
      let m = ld + 1 in
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((s.(j - 1) *. float_of_int (4 - delta)) +. (s.(j) *. float_of_int delta))
      /. 4.0
    in
    (q 1, q 3)

let ratio num den = if den = 0.0 then 0.0 else num /. den
