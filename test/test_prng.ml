(* Unit and property tests for the prng library: SplitMix64 streams, the
   typed Rng layer, and seed bitstrings with cursors. *)

open Core

let check = Alcotest.check
let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

module Sm = Prng.Splitmix
module Rng = Prng.Rng
module Bits = Prng.Bitstring

(* --- Splitmix --- *)

let test_determinism () =
  let a = Sm.of_int 12345 and b = Sm.of_int 12345 in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Sm.next a) (Sm.next b)
  done

let test_copy () =
  let a = Sm.of_int 7 in
  let _ = Sm.next a in
  let b = Sm.copy a in
  check Alcotest.int64 "copy continues identically" (Sm.next a) (Sm.next b)

let test_seeds_differ () =
  let a = Sm.of_int 1 and b = Sm.of_int 2 in
  checkb "different seeds diverge" true (Sm.next a <> Sm.next b)

let test_split_diverges () =
  let parent = Sm.of_int 99 in
  let child = Sm.split parent in
  let xs = List.init 20 (fun _ -> Sm.next parent) in
  let ys = List.init 20 (fun _ -> Sm.next child) in
  checkb "split stream differs from parent's continuation" true (xs <> ys)

let test_known_answers () =
  (* The published SplitMix64 reference stream from seed 0, and a second
     seed: the streams every recorded trace and table was drawn from. *)
  let stream seed k =
    let g = Sm.create seed in
    List.init k (fun _ -> Sm.next g)
  in
  let hex = Alcotest.list Alcotest.int64 in
  check hex "seed 0"
    [ 0xe220a8397b1dcdafL; 0x6e789e6aa1b965f4L; 0x06c45d188009454fL;
      0xf88bb8a8724c81ecL; 0x1b39896a51a8749bL ]
    (stream 0L 5);
  check hex "seed 1234567"
    [ 0x599ed017fb08fc85L; 0x2c73f08458540fa5L; 0x883ebce5a3f27c77L ]
    (stream 1234567L 3)

let test_mix_nonzero () =
  (* mix is a bijection with fixed point 0 — the generator never sits at
     state 0 because the golden gamma is added before mixing. *)
  check Alcotest.int64 "mix fixes zero" 0L (Sm.mix 0L);
  checkb "mix avalanches one" true (Sm.mix 1L <> 1L);
  checkb "mix injective-ish" true (Sm.mix 1L <> Sm.mix 2L)

(* --- Rng draws --- *)

let test_bool_fair () =
  let rng = Rng.of_int 11 in
  let heads = ref 0 in
  let n = 20_000 in
  for _ = 1 to n do
    if Rng.bool rng then incr heads
  done;
  let rate = float_of_int !heads /. float_of_int n in
  checkb "fair coin within 3 sigma" true (Float.abs (rate -. 0.5) < 0.015)

let test_bits_range () =
  let rng = Rng.of_int 5 in
  checki "bits 0" 0 (Rng.bits rng 0);
  for _ = 1 to 1000 do
    let v = Rng.bits rng 7 in
    checkb "bits 7 in range" true (v >= 0 && v < 128)
  done

let test_int_bounds () =
  let rng = Rng.of_int 3 in
  List.iter
    (fun n ->
      for _ = 1 to 200 do
        let v = Rng.int rng n in
        checkb "int in range" true (v >= 0 && v < n)
      done)
    [ 1; 2; 3; 7; 10; 100; 1000 ]

let test_int_covers_support () =
  let rng = Rng.of_int 17 in
  let hits = Array.make 5 0 in
  for _ = 1 to 2000 do
    hits.(Rng.int rng 5) <- hits.(Rng.int rng 5) + 1
  done;
  Array.iteri (fun i c -> checkb (Printf.sprintf "value %d drawn" i) true (c > 0)) hits

let test_int_large_bounds () =
  (* Regression: bounds above 2^30 used to trip the bits-width assert.
     The envelope now covers any positive OCaml int (up to 62 bits). *)
  let rng = Rng.of_int 61 in
  List.iter
    (fun n ->
      for _ = 1 to 200 do
        let v = Rng.int rng n in
        checkb (Printf.sprintf "int %d in range" n) true (v >= 0 && v < n)
      done)
    [ (1 lsl 30) + 1; 1 lsl 40; (1 lsl 61) + 7; max_int ];
  (* A draw above 2^31 is actually reachable, i.e. high bits are live. *)
  let seen_high = ref false in
  for _ = 1 to 1000 do
    if Rng.int rng max_int > 1 lsl 31 then seen_high := true
  done;
  checkb "draws exceed 2^31" true !seen_high

let test_int_in_range () =
  let rng = Rng.of_int 23 in
  for _ = 1 to 500 do
    let v = Rng.int_in_range rng ~min:(-5) ~max:5 in
    checkb "in inclusive range" true (v >= -5 && v <= 5)
  done;
  checki "degenerate range" 4 (Rng.int_in_range rng ~min:4 ~max:4)

let test_float_range () =
  let rng = Rng.of_int 29 in
  for _ = 1 to 1000 do
    let v = Rng.float rng 2.5 in
    checkb "float in [0, 2.5)" true (v >= 0.0 && v < 2.5)
  done

let test_float_mean () =
  let rng = Rng.of_int 31 in
  let n = 20_000 in
  let total = ref 0.0 in
  for _ = 1 to n do
    total := !total +. Rng.float rng 1.0
  done;
  let mean = !total /. float_of_int n in
  checkb "uniform mean near 1/2" true (Float.abs (mean -. 0.5) < 0.01)

let test_bernoulli_edges () =
  let rng = Rng.of_int 37 in
  checkb "p=0 never" false (Rng.bernoulli rng 0.0);
  checkb "p=1 always" true (Rng.bernoulli rng 1.0);
  checkb "p<0 never" false (Rng.bernoulli rng (-0.3));
  checkb "p>1 always" true (Rng.bernoulli rng 1.7)

let test_bernoulli_rate () =
  let rng = Rng.of_int 41 in
  let hits = ref 0 in
  let n = 20_000 in
  for _ = 1 to n do
    if Rng.bernoulli rng 0.3 then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int n in
  checkb "bernoulli(0.3) rate" true (Float.abs (rate -. 0.3) < 0.015)

let test_geometric_trial () =
  let rng = Rng.of_int 43 in
  checkb "b=0 always succeeds" true (Rng.geometric_trial rng 0);
  let hits = ref 0 in
  let n = 20_000 in
  for _ = 1 to n do
    if Rng.geometric_trial rng 1 then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int n in
  checkb "b=1 rate 1/2" true (Float.abs (rate -. 0.5) < 0.015);
  let hits3 = ref 0 in
  for _ = 1 to n do
    if Rng.geometric_trial rng 3 then incr hits3
  done;
  let rate3 = float_of_int !hits3 /. float_of_int n in
  checkb "b=3 rate 1/8" true (Float.abs (rate3 -. 0.125) < 0.01)

let test_shuffle_permutes () =
  let rng = Rng.of_int 47 in
  let a = Array.init 20 Fun.id in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort Int.compare sorted;
  check (Alcotest.array Alcotest.int) "multiset preserved" (Array.init 20 Fun.id) sorted

let test_pick_member () =
  let rng = Rng.of_int 53 in
  let a = [| 3; 1; 4; 1; 5 |] in
  for _ = 1 to 100 do
    let v = Rng.pick rng a in
    checkb "picked element is a member" true (Array.exists (( = ) v) a)
  done

let test_bernoulli_pow2 () =
  let rng = Rng.of_int 67 in
  let before = Rng.copy rng in
  checkb "k=0 always" true (Rng.bernoulli_pow2 rng 0);
  check Alcotest.int64 "k=0 draws nothing" (Rng.bits64 before) (Rng.bits64 rng);
  let hits = ref 0 in
  let n = 20_000 in
  for _ = 1 to n do
    if Rng.bernoulli_pow2 rng 2 then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int n in
  checkb "k=2 rate 1/4" true (Float.abs (rate -. 0.25) < 0.015);
  (* Above 53 only the all-zero 53-bit draw succeeds, and each call still
     takes exactly one draw. *)
  let g = Rng.of_int 71 and shadow = Rng.of_int 71 in
  for k = 54 to 62 do
    checkb (Printf.sprintf "k=%d on a nonzero draw" k) false (Rng.bernoulli_pow2 g k);
    ignore (Rng.bits64 shadow)
  done;
  check Alcotest.int64 "one draw per call" (Rng.bits64 shadow) (Rng.bits64 g)

(* --- allocation ---

   Every draw that returns an immediate, every keyed hash and the 63-bit
   mixer must allocate nothing per call, in whichever build profile the
   suite runs (the dev profile compiles with -opaque, so nothing here is
   inlined into the caller).  [float] and [bits64] return a boxed float
   and a boxed int64 by signature, and a keyed [_stream] returns a fresh
   8-byte generator: they may allocate that block and nothing more. *)

let calls = 10_000

let words_per_call f =
  let w0 = Gc.minor_words () in
  for i = 1 to calls do
    f i
  done;
  (Gc.minor_words () -. w0) /. float_of_int calls

let check_no_alloc name f =
  Alcotest.(check (float 0.0)) (name ^ " allocates 0 words") 0.0 (words_per_call f)

let test_draws_allocation_free () =
  let g = Rng.of_int 73 in
  let a = Array.init 8 Fun.id in
  check_no_alloc "bool" (fun _ -> ignore (Rng.bool g));
  check_no_alloc "bits 53" (fun _ -> ignore (Rng.bits g 53));
  check_no_alloc "int 10" (fun _ -> ignore (Rng.int g 10));
  check_no_alloc "int max_int" (fun _ -> ignore (Rng.int g max_int));
  check_no_alloc "int_in_range" (fun _ -> ignore (Rng.int_in_range g ~min:(-3) ~max:3));
  check_no_alloc "bernoulli" (fun _ -> ignore (Rng.bernoulli g 0.3));
  check_no_alloc "bernoulli_pow2" (fun i -> ignore (Rng.bernoulli_pow2 g (i mod 63)));
  check_no_alloc "geometric_trial 3" (fun _ -> ignore (Rng.geometric_trial g 3));
  check_no_alloc "pick" (fun _ -> ignore (Rng.pick g a));
  check_no_alloc "shuffle" (fun _ -> Rng.shuffle g a);
  check_no_alloc "round_hash" (fun i ->
      ignore (Rng.round_hash ~round:i ~salt:(i * 2654435761)));
  check_no_alloc "node_hash" (fun i -> ignore (Rng.node_hash ~seed:17 ~node:i ~round:(i lsr 3)));
  check_no_alloc "mix63" (fun i -> ignore (Rng.mix63 i));
  check_no_alloc "skip" (fun i -> Rng.skip g i);
  let buf = Bytes.create 64 in
  check_no_alloc "fill_bools" (fun i -> Rng.fill_bools g buf (i mod 513));
  (* Enough bits for every take below: 10^4 + 15·10^4 + 31.5·10^4. *)
  let c = Bits.cursor (Bits.random g (64 * calls)) in
  check_no_alloc "take_bit" (fun _ -> ignore (Bits.take_bit c));
  check_no_alloc "take_int" (fun i -> ignore (Bits.take_int c (i mod 31)));
  check_no_alloc "take_all_zero" (fun i -> ignore (Bits.take_all_zero c (i mod 64)));
  let boxed name bound f =
    let w = words_per_call f in
    checkb (Printf.sprintf "%s allocates at most its %g-word block (%g)" name bound w)
      true (w <= bound)
  in
  boxed "float" 2.0 (fun _ -> ignore (Rng.float g 1.0));
  boxed "bits64" 3.0 (fun _ -> ignore (Rng.bits64 g));
  boxed "round_stream" 3.0 (fun i -> ignore (Rng.round_stream ~round:i ~salt:5));
  boxed "node_stream" 3.0 (fun i -> ignore (Rng.node_stream ~seed:5 ~node:i ~round:1))

let test_strategy_decide_allocation_free () =
  let module S = Baseline.Strategy in
  List.iter
    (fun spec ->
      let st = S.init spec ~rng:(Rng.of_int 79) ~node:3 in
      check_no_alloc ("Strategy.decide " ^ S.to_spec spec) (fun round ->
          ignore (S.decide st ~round)))
    [
      S.Fixed { p = 0.3 };
      S.Decay { levels = 6 };
      S.Decay_restart { levels = 6 };
      S.Sawtooth { levels = 6 };
      S.Backoff { max_exp = 6 };
      S.Slotted { slots = 5 };
    ]

(* --- frozen-oracle equivalence --- *)

module Ref = Oracle.Rng

type op =
  | Bits64
  | Bool
  | Bits of int
  | Int of int
  | Int_in_range of int * int
  | Float of float
  | Bernoulli of float
  | Pow2 of int
  | Geometric of int
  | Split
  | Copy
  | Shuffle of int

let show_op = function
  | Bits64 -> "bits64"
  | Bool -> "bool"
  | Bits k -> Printf.sprintf "bits %d" k
  | Int n -> Printf.sprintf "int %d" n
  | Int_in_range (lo, hi) -> Printf.sprintf "int_in_range %d %d" lo hi
  | Float x -> Printf.sprintf "float %h" x
  | Bernoulli p -> Printf.sprintf "bernoulli %h" p
  | Pow2 k -> Printf.sprintf "pow2 %d" k
  | Geometric b -> Printf.sprintf "geometric_trial %d" b
  | Split -> "split"
  | Copy -> "copy"
  | Shuffle n -> Printf.sprintf "shuffle %d" n

let op_gen =
  let open QCheck.Gen in
  let prob =
    oneof
      [ oneofl [ 0.0; 1.0; Float.nan; -0.5; 1.5; 0.5; ldexp 1.0 (-61) ];
        float_bound_inclusive 1.0 ]
  in
  frequency
    [
      (2, return Bits64);
      (2, return Bool);
      (2, map (fun k -> Bits k) (int_bound 62));
      (2, map (fun n -> Int n) (oneof [ int_range 1 100; int_range 1 max_int;
                                         return max_int ]));
      (1, map2 (fun lo span -> Int_in_range (lo, lo + span))
            (int_range (-1_000_000) 1_000_000) (int_bound 1_000_000));
      (1, map (fun x -> Float x) (float_bound_inclusive 1000.0));
      (2, map (fun p -> Bernoulli p) prob);
      (2, map (fun k -> Pow2 k) (int_bound 61));
      (1, map (fun b -> Geometric b) (int_bound 6));
      (1, return Split);
      (1, return Copy);
      (1, map (fun n -> Shuffle n) (int_bound 12));
    ]

let seed_arb =
  QCheck.make ~print:Int64.to_string
    QCheck.Gen.(oneof [ map Int64.of_int int; ui64; map Int64.neg ui64;
                        oneofl [ 0L; -1L; Int64.min_int; Int64.max_int ] ])

(* Run one op on both generators; [Some msg] on the first divergence. *)
let step g r op =
  let same what a b = if a = b then None else Some what in
  match op with
  | Bits64 -> same "bits64" (Rng.bits64 g) (Ref.bits64 r)
  | Bool -> same "bool" (Rng.bool g) (Ref.bool r)
  | Bits k -> same "bits" (Rng.bits g k) (Ref.bits r k)
  | Int n -> same "int" (Rng.int g n) (Ref.int r n)
  | Int_in_range (min, max) ->
      same "int_in_range" (Rng.int_in_range g ~min ~max) (Ref.int_in_range r ~min ~max)
  | Float x ->
      same "float" (Int64.bits_of_float (Rng.float g x))
        (Int64.bits_of_float (Ref.float r x))
  | Bernoulli p -> same "bernoulli" (Rng.bernoulli g p) (Ref.bernoulli r p)
  | Pow2 k ->
      same "bernoulli_pow2"
        (Rng.bernoulli_pow2 g k)
        (Ref.bernoulli r (1.0 /. float_of_int (1 lsl k)))
  | Geometric b -> same "geometric_trial" (Rng.geometric_trial g b) (Ref.geometric_trial r b)
  | Split ->
      let gc = Rng.split g and rc = Ref.split r in
      same "split child" (Rng.bits64 gc) (Ref.bits64 rc)
  | Copy ->
      let gc = Rng.copy g and rc = Ref.copy r in
      same "copy" (Rng.bits64 gc, Rng.bits64 g) (Ref.bits64 rc, Ref.bits64 r)
  | Shuffle n ->
      let a = Array.init n Fun.id and b = Array.init n Fun.id in
      Rng.shuffle g a;
      Ref.shuffle r b;
      same "shuffle" a b

let streams_match seed ops =
  let g = Rng.create seed and r = Ref.create seed in
  let rec go = function
    | [] -> Rng.bits64 g = Ref.bits64 r || QCheck.Test.fail_report "final position"
    | op :: rest -> (
        match step g r op with
        | None -> go rest
        | Some what -> QCheck.Test.fail_reportf "%s diverged at %s" what (show_op op))
  in
  go ops

(* Ints where 63-bit native arithmetic and 64-bit Int64 arithmetic part
   ways: negatives and values near both ends of the int range. *)
let key_int =
  QCheck.Gen.(
    oneof
      [ int; small_signed_int; int_range (max_int - 1000) max_int;
        int_range min_int (min_int + 1000); oneofl [ 0; -1; max_int; min_int ] ])

let stream_eq g r = List.init 4 (fun _ -> Rng.bits64 g) = List.init 4 (fun _ -> Ref.bits64 r)

let top53 h = Int64.to_int (Int64.shift_right_logical h 11)

let keyed_match (seed, node, round) =
  let edge = node in
  Rng.round_hash ~round ~salt:((edge * 2654435761) + seed)
  = top53 (Ref.scheduler_hash ~seed ~round ~edge)
  && stream_eq (Rng.round_stream ~round ~salt:seed) (Ref.sparse_round_stream ~seed ~round)
  && stream_eq (Rng.node_stream ~seed ~node ~round) (Ref.node_rng ~seed ~node ~round)
  && stream_eq
       (Rng.node_stream ~seed ~node ~round:(round + 1))
       (Ref.reviver_rng ~seed ~node ~round)
  && Rng.node_hash ~seed ~node ~round:0 = top53 (Ref.churn_hash ~seed ~node)
  && stream_eq
       (Baseline.Strategy.node_rng ~round ~seed ~node ())
       (Ref.node_rng ~seed ~node ~round)
  && Rng.mix (Int64.of_int seed) = Ref.mix (Int64.of_int seed)
  && Rng.mix63 seed = Ref.workload_mix seed

(* --- frozen bit kernels ---

   The seed fill and the window takes against their per-bit originals in
   test/oracle: a dropped, repeated or reordered draw or bit shows as a
   different value or a different position. *)

module Ref_bits = Oracle.Bitstring

let kappa_gen =
  QCheck.Gen.(
    oneof [ int_bound 5000; int_bound 70; oneofl [ 0; 1; 7; 8; 9; 63; 64; 65; 3102 ] ])

let same_stream g r = List.init 4 (fun _ -> Rng.bits64 g) = List.init 4 (fun _ -> Rng.bits64 r)

let random_matches (seed, k) =
  let g = Rng.create seed and r = Rng.create seed in
  let b = Bits.random g k and want = Ref_bits.random r k in
  (Bits.equal b want || QCheck.Test.fail_reportf "bits differ: %s" (Bits.to_string b))
  && (same_stream g r || QCheck.Test.fail_report "generator position differs")

let skip_matches (seed, k) =
  let g = Rng.create seed and r = Rng.create seed in
  Rng.skip g k;
  for _ = 1 to k do
    ignore (Rng.bits64 r)
  done;
  same_stream g r

type take = Take_bit | Take_int of int | Take_all_zero of int

let show_take = function
  | Take_bit -> "take_bit"
  | Take_int k -> Printf.sprintf "take_int %d" k
  | Take_all_zero k -> Printf.sprintf "take_all_zero %d" k

let take_gen =
  QCheck.Gen.(
    frequency
      [
        (1, return Take_bit);
        (3, map (fun k -> Take_int k) (int_bound 30));
        (3, map (fun k -> Take_all_zero k) (int_range (-2) 70));
      ])

(* A bitstring whose bits are 1 with probability 1/density, so long zero
   runs (and [take_all_zero] hits) are common at the larger densities. *)
let biased_bits ~seed ~density len =
  let g = Rng.of_int seed in
  Bits.of_bools (List.init len (fun _ -> Rng.int g density = 0))

let outcome f = match f () with v -> Ok v | exception Invalid_argument m -> Error m

let takes_match ((seed, density, len, start), ops) =
  let s = biased_bits ~seed ~density len in
  let c = Bits.cursor s and r = Bits.cursor s in
  for _ = 1 to min start len do
    ignore (Bits.take_bit c);
    ignore (Bits.take_bit r)
  done;
  let b2i b = if b then 1 else 0 in
  List.for_all
    (fun op ->
      let got, want =
        match op with
        | Take_bit ->
            (outcome (fun () -> b2i (Bits.take_bit c)), outcome (fun () -> b2i (Bits.take_bit r)))
        | Take_int k -> (outcome (fun () -> Bits.take_int c k), outcome (fun () -> Ref_bits.take_int r k))
        | Take_all_zero k ->
            ( outcome (fun () -> b2i (Bits.take_all_zero c k)),
              outcome (fun () -> b2i (Ref_bits.take_all_zero r k)) )
      in
      (got = want && Bits.position c = Bits.position r)
      || QCheck.Test.fail_reportf "%s: ends at %d, the per-bit take at %d" (show_take op)
           (Bits.position c) (Bits.position r))
    ops

let test_cursor_exhaustion () =
  let exhausted = Invalid_argument "Bitstring.take_bit: exhausted" in
  let c = Bits.cursor (Bits.of_string "0010110") in
  ignore (Bits.take_bit c);
  Alcotest.check_raises "take_int past the end" exhausted (fun () -> ignore (Bits.take_int c 7));
  checki "take_int consumed every remaining bit" 7 (Bits.position c);
  checki "take_int 0 at the end" 0 (Bits.take_int c 0);
  checkb "take_all_zero 0 at the end" true (Bits.take_all_zero c 0);
  let c = Bits.cursor (Bits.of_string "0000") in
  Alcotest.check_raises "take_all_zero past the end" exhausted (fun () ->
      ignore (Bits.take_all_zero c 5));
  checki "take_all_zero consumed every remaining bit" 4 (Bits.position c)

(* --- Bitstring --- *)

let test_bits_of_bools_roundtrip () =
  let bools = [ true; false; false; true; true; false ] in
  check (Alcotest.list Alcotest.bool) "roundtrip" bools
    (Bits.to_bools (Bits.of_bools bools))

let test_bits_of_string () =
  let s = "011010001" in
  check Alcotest.string "string roundtrip" s (Bits.to_string (Bits.of_string s));
  Alcotest.check_raises "bad char" (Invalid_argument
    "Bitstring.of_string: expected only '0'/'1'") (fun () ->
      ignore (Bits.of_string "01x"))

let test_bits_get_bounds () =
  let b = Bits.of_string "101" in
  checkb "get 0" true (Bits.get b 0);
  checkb "get 1" false (Bits.get b 1);
  Alcotest.check_raises "out of range"
    (Invalid_argument "Bitstring.get: index out of range") (fun () ->
      ignore (Bits.get b 3))

let test_bits_ones () =
  checki "ones" 4 (Bits.ones (Bits.of_string "1011001"));
  checki "ones empty" 0 (Bits.ones (Bits.of_string ""))

let test_bits_equal_compare () =
  let a = Bits.of_string "1010" and b = Bits.of_string "1010" in
  checkb "equal" true (Bits.equal a b);
  checki "compare equal" 0 (Bits.compare a b);
  checkb "length distinguishes" false (Bits.equal a (Bits.of_string "10100"))

let test_bits_random_length_balance () =
  let rng = Rng.of_int 59 in
  let b = Bits.random rng 10_000 in
  checki "length" 10_000 (Bits.length b);
  let rate = float_of_int (Bits.ones b) /. 10_000.0 in
  checkb "random seed is balanced" true (Float.abs (rate -. 0.5) < 0.02)

let test_cursor_sequential () =
  let b = Bits.of_string "1101001" in
  let c = Bits.cursor b in
  checki "initial remaining" 7 (Bits.remaining c);
  let read = List.init 7 (fun _ -> Bits.take_bit c) in
  check (Alcotest.list Alcotest.bool) "bits in order" (Bits.to_bools b) read;
  checki "exhausted" 0 (Bits.remaining c);
  Alcotest.check_raises "take past end"
    (Invalid_argument "Bitstring.take_bit: exhausted") (fun () ->
      ignore (Bits.take_bit c))

let test_cursor_take_int () =
  let c = Bits.cursor (Bits.of_string "10110") in
  checki "msb-first 101 = 5" 5 (Bits.take_int c 3);
  checki "next 10 = 2" 2 (Bits.take_int c 2);
  checki "position" 5 (Bits.position c)

let test_cursor_take_all_zero () =
  let c = Bits.cursor (Bits.of_string "000100") in
  checkb "three zeros" true (Bits.take_all_zero c 3);
  (* Consumes all bits even after a 1: cursor alignment property. *)
  checkb "has a one" false (Bits.take_all_zero c 3);
  checki "all consumed" 0 (Bits.remaining c)

(* --- qcheck properties --- *)

let qcheck_cases =
  let open QCheck in
  [
    Test.make ~name:"bitstring bools roundtrip" ~count:200
      (small_list bool)
      (fun bools -> Bits.to_bools (Bits.of_bools bools) = bools);
    Test.make ~name:"bitstring string roundtrip" ~count:200
      (string_of_size Gen.small_nat)
      (fun s ->
        let s01 =
          String.map (fun ch -> if Char.code ch land 1 = 0 then '0' else '1') s
        in
        Bits.to_string (Bits.of_string s01) = s01);
    Test.make ~name:"take_int stays below 2^k" ~count:200
      (pair (int_bound 12) small_int)
      (fun (k, seed) ->
        let rng = Rng.of_int seed in
        let b = Bits.random rng (max 1 k) in
        let c = Bits.cursor b in
        let v = Bits.take_int c (Bits.length b) in
        v >= 0 && v < 1 lsl Bits.length b);
    Test.make ~name:"rng int below bound" ~count:500
      (pair (int_range 1 10_000) small_int)
      (fun (n, seed) ->
        let rng = Rng.of_int seed in
        let v = Rng.int rng n in
        v >= 0 && v < n);
    Test.make ~name:"rng streams match the frozen record-based generator"
      ~count:300
      (pair seed_arb
         (make ~print:(Print.list show_op) Gen.(list_size (int_bound 60) op_gen)))
      (fun (seed, ops) -> streams_match seed ops);
    Test.make ~name:"keyed hashes match their Int64 formulas" ~count:1000
      (make ~print:Print.(triple int int int) Gen.(triple key_int key_int key_int))
      keyed_match;
    Test.make ~name:"bitstring random equals the frozen per-bit loop" ~count:300
      (pair seed_arb (make ~print:Print.int kappa_gen))
      random_matches;
    Test.make ~name:"rng skip equals k draws" ~count:300
      (pair seed_arb (make ~print:Print.int kappa_gen))
      skip_matches;
    Test.make ~name:"cursor window takes equal the frozen per-bit takes" ~count:500
      (make
         ~print:Print.(pair (quad int int int int) (list show_take))
         Gen.(
           pair
             (quad int (oneofl [ 2; 8; 64 ]) (int_bound 300) (int_bound 300))
             (list_size (int_bound 40) take_gen)))
      takes_match;
    Test.make ~name:"shuffle preserves multiset" ~count:200
      (pair (small_list small_int) small_int)
      (fun (l, seed) ->
        let rng = Rng.of_int seed in
        let a = Array.of_list l in
        Rng.shuffle rng a;
        List.sort compare (Array.to_list a) = List.sort compare l);
  ]

let suite =
  List.map (fun (name, f) -> Alcotest.test_case name `Quick f)
    [
      ("splitmix determinism", test_determinism);
      ("splitmix copy", test_copy);
      ("splitmix seeds differ", test_seeds_differ);
      ("splitmix split diverges", test_split_diverges);
      ("splitmix known answers", test_known_answers);
      ("splitmix mix nonzero", test_mix_nonzero);
      ("rng bool fair", test_bool_fair);
      ("rng bits range", test_bits_range);
      ("rng int bounds", test_int_bounds);
      ("rng int covers support", test_int_covers_support);
      ("rng int large bounds", test_int_large_bounds);
      ("rng int_in_range", test_int_in_range);
      ("rng float range", test_float_range);
      ("rng float mean", test_float_mean);
      ("rng bernoulli edges", test_bernoulli_edges);
      ("rng bernoulli rate", test_bernoulli_rate);
      ("rng geometric trial", test_geometric_trial);
      ("rng bernoulli_pow2", test_bernoulli_pow2);
      ("rng draws allocate nothing", test_draws_allocation_free);
      ("strategy decide allocates nothing", test_strategy_decide_allocation_free);
      ("rng shuffle permutes", test_shuffle_permutes);
      ("rng pick member", test_pick_member);
      ("bitstring bools roundtrip", test_bits_of_bools_roundtrip);
      ("bitstring string io", test_bits_of_string);
      ("bitstring get bounds", test_bits_get_bounds);
      ("bitstring ones", test_bits_ones);
      ("bitstring equal/compare", test_bits_equal_compare);
      ("bitstring random balance", test_bits_random_length_balance);
      ("cursor sequential", test_cursor_sequential);
      ("cursor take_int", test_cursor_take_int);
      ("cursor take_all_zero", test_cursor_take_all_zero);
      ("cursor exhaustion", test_cursor_exhaustion);
    ]
  @ List.map QCheck_alcotest.to_alcotest qcheck_cases
