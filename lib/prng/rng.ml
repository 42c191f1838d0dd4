(* SplitMix64 (Steele, Lea and Flood, OOPSLA 2014) and every typed draw
   over it.  The state is 8 raw bytes, not a boxed [int64] field, and the
   step and both finalizers are written here and inlined into each draw:
   the 64-bit intermediates then stay in registers, so a draw that
   returns an int or a bool allocates nothing, even when its caller sits
   behind an [-opaque] module boundary (dune's dev profile). *)

type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

(* The standard SplitMix64 finalizer: xor-shift multiply chains that give
   good avalanche behaviour on the raw counter. *)
let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* A second finalizer (MurmurHash3 constants) used to derive split streams. *)
let[@inline] mix_gamma z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 33)) 0xFF51AFD7ED558CCDL in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 33)) 0xC4CEB9FE1A85EC53L in
  let z = Int64.logxor z (Int64.shift_right_logical z 33) in
  (* Gammas must be odd; this also keeps them well distributed. *)
  Int64.logor z 1L

let[@inline] create seed =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 seed;
  t

let of_int seed = create (Int64.of_int seed)

let[@inline] next t =
  let s = Int64.add (Bytes.get_int64_ne t 0) golden_gamma in
  Bytes.set_int64_ne t 0 s;
  mix s

let split t =
  let s1 = next t in
  let s2 = next t in
  create (Int64.logxor (mix s1) (mix_gamma s2))

let copy = Bytes.copy
let bits64 t = next t

let[@inline] bool t = Int64.logand (next t) 1L = 1L

let[@inline] bits t k =
  (* 62 is the widest width whose values are all non-negative OCaml ints
     on 64-bit platforms (an int has 63 value bits including the sign). *)
  assert (k >= 0 && k <= 62);
  if k = 0 then 0
  else Int64.to_int (Int64.shift_right_logical (next t) (64 - k))

(* Rejection sampling on the smallest power-of-two envelope of [n].  The
   envelope is capped at 62 bits, which covers every positive OCaml int
   (max_int = 2^62 - 1); [1 lsl k] must not be evaluated at k = 62, where
   it would overflow to min_int.  Both loops are top-level so that a draw
   builds no closure. *)
let rec envelope n k = if k >= 62 || 1 lsl k >= n then k else envelope n (k + 1)

let rec below t n k =
  let v = bits t k in
  if v < n then v else below t n k

let int t n =
  assert (n > 0);
  if n = 1 then 0 else below t n (envelope n 1)

let int_in_range t ~min ~max =
  assert (min <= max);
  min + int t (max - min + 1)

let[@inline] float t x =
  (* 53 random bits scaled into [0, 1), then into [0, x). *)
  let v = Int64.to_float (Int64.shift_right_logical (next t) 11) in
  x *. (v /. 9007199254740992.0)

let bernoulli t p =
  if p <= 0.0 then false
  else if p >= 1.0 then true
  else float t 1.0 < p

(* [bernoulli t (2^-k)] in integers: 53 bits v scaled into [0, 1) fall
   below 2^-k exactly when v < 2^(53-k), which for k > 53 leaves v = 0. *)
let bernoulli_pow2 t k =
  assert (k >= 0 && k <= 62);
  if k = 0 then true
  else
    let v = bits t 53 in
    if k <= 53 then v < 1 lsl (53 - k) else v = 0

let rec geometric_trial t b =
  assert (b >= 0);
  b = 0 || ((not (bool t)) && geometric_trial t (b - 1))

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let pick t a =
  assert (Array.length a > 0);
  a.(int t (Array.length a))

(* --- counter-mode keys ---

   Each key is finalized with [mix] after 64-bit wrap-around arithmetic
   (the sums and products are [Int64]'s, the [+ 1] offsets native), so
   the hashes are the ones the link scheduler, the per-node strategy
   streams, revival and churn have always drawn. *)

let[@inline] round_key ~round ~salt =
  mix (Int64.add (Int64.mul (Int64.of_int round) 0x100000001B3L) (Int64.of_int salt))

let round_hash ~round ~salt =
  Int64.to_int (Int64.shift_right_logical (round_key ~round ~salt) 11)

let round_stream ~round ~salt = create (round_key ~round ~salt)

let[@inline] node_key ~seed ~node ~round =
  mix
    (Int64.add
       (Int64.add
          (Int64.mul (Int64.of_int seed) 0x9E3779B97F4A7C15L)
          (Int64.mul (Int64.of_int (node + 1)) 0xC2B2AE3D27D4EB4FL))
       (Int64.mul (Int64.of_int round) 0x165667B19E3779F9L))

let node_hash ~seed ~node ~round =
  Int64.to_int (Int64.shift_right_logical (node_key ~seed ~node ~round) 11)

let node_stream ~seed ~node ~round = create (node_key ~seed ~node ~round)

(* A 63-bit SplitMix-style finalizer on native ints, for keys hashed on a
   hot path that must not leave the int domain.  The multipliers are odd
   constants below 2^62. *)
let mix63 z =
  let z = (z lxor (z lsr 31)) * 0x2545F4914F6CDD1D in
  let z = (z lxor (z lsr 29)) * 0x3C6EF372FE94F82B in
  (z lxor (z lsr 32)) land max_int
