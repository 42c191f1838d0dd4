(* Order statistics and the regression rule every benchmark metric is
   judged by. *)

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

let median xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stat.median: no samples";
  let a = sorted xs in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Python's [statistics.quantiles data ~n:4] (the default "exclusive"
   method, with its clamp), so the quartiles printed here are the ones
   the repeat criterion in the README is computed with. *)
let quartiles xs =
  let len = Array.length xs in
  if len = 0 then invalid_arg "Stat.quartiles: no samples";
  let a = sorted xs in
  if len = 1 then (a.(0), a.(0), a.(0))
  else
    let m = len + 1 in
    let q i =
      let j = max 1 (min (len - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.0
    in
    (q 1, q 2, q 3)

let iqr xs =
  let q1, _, q3 = quartiles xs in
  q3 -. q1

(* The 1-based nearest rank of percentile [p] in [0, 100] among [n]
   samples; the epsilon absorbs the representation error of [p]
   (99.9 · 10000 / 100 is not exactly 9990). *)
let rank n p = max 1 (min n (int_of_float (Float.ceil ((p *. float_of_int n /. 100.0) -. 1e-9))))

let percentile xs p =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stat.percentile: no samples";
  (sorted xs).(rank n p - 1)

(* Whether [n] samples leave at least ten strictly beyond the nearest
   rank of percentile [p]. *)
let supports n p = n - rank n p >= 10

let tail_candidates = [ 99.999; 99.99; 99.9; 99.0; 90.0; 50.0 ]

(* The highest percentile a sample of [n] supports; [None] below 20. *)
let supported_tail n = List.find_opt (supports n) tail_candidates

type better = Lower | Higher

(* How much worse [value] is than [base]; negative when it is better. *)
let worse_by better ~base ~value =
  match better with Lower -> value -. base | Higher -> base -. value

(* A relative bound with an absolute floor: a change of up to
   [max (bound · |base|) floor] is noise by definition. *)
let allowed ~bound ~floor base = Float.max (bound *. Float.abs base) floor

type verdict = Better | Worse | Within | Unresolved

let string_of_verdict = function
  | Better -> "better"
  | Worse -> "worse"
  | Within -> "within bound"
  | Unresolved -> "unresolved"

(* [base] and [change] are the two sides' samples.  A spread (widest
   interquartile range) above the allowance leaves the comparison
   unresolved unless every change sample beats every base sample. *)
let verdict better ~bound ~floor ~base ~change =
  let mb = median base and mc = median change in
  let allow = allowed ~bound ~floor mb in
  let spread = Float.max (iqr base) (iqr change) in
  let worse = worse_by better ~base:mb ~value:mc in
  let all_better =
    Array.for_all
      (fun c -> Array.for_all (fun b -> worse_by better ~base:b ~value:c < 0.0) base)
      change
  in
  if spread > allow then if all_better then Better else Unresolved
  else if worse > allow then Worse
  else if -.worse > allow then Better
  else Within
