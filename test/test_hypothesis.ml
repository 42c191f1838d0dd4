(* Tests for the hypothesis-test helpers plus their application to the
   prng and to committed seeds (strengthening the E4 independence
   checks). *)

open Core

let checkb = Alcotest.check Alcotest.bool
let checkf = Alcotest.check (Alcotest.float 1e-9)

module H = Oracle.Hypothesis
module Rng = Prng.Rng

let test_chi_square_statistic () =
  checkf "perfect fit" 0.0
    (H.chi_square_statistic ~observed:[| 10; 10 |] ~expected:[| 10.0; 10.0 |]);
  checkf "known value" 2.0
    (H.chi_square_statistic ~observed:[| 15; 5 |] ~expected:[| 10.0; 10.0 |]
    -. 3.0);
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Hypothesis.chi_square_statistic: length mismatch")
    (fun () ->
      ignore (H.chi_square_statistic ~observed:[| 1 |] ~expected:[| 1.0; 2.0 |]))

let test_chi_square_uniform () =
  checkf "uniform is 0" 0.0 (H.chi_square_uniform [| 5; 5; 5; 5 |]);
  checkb "skew detected" true (H.chi_square_uniform [| 100; 0; 0; 0 |] > 100.0)

let test_critical_values () =
  (* Spot-check the Wilson–Hilferty approximation against table values
     (chi2.ppf(0.99): df=5 -> 15.09, df=10 -> 23.21, df=30 -> 50.89). *)
  let close df expected =
    let v = H.chi_square_critical ~df in
    checkb
      (Printf.sprintf "df=%d near %.2f (got %.2f)" df expected v)
      true
      (Float.abs (v -. expected) /. expected < 0.02)
  in
  close 5 15.09;
  close 10 23.21;
  close 30 50.89

let test_uniform_ok_accepts_rng () =
  let rng = Rng.of_int 31 in
  let counts = Array.make 16 0 in
  for _ = 1 to 16_000 do
    let v = Rng.int rng 16 in
    counts.(v) <- counts.(v) + 1
  done;
  checkb "splitmix passes chi-square uniformity" true (H.uniform_ok counts)

let test_uniform_ok_rejects_bias () =
  let counts = Array.make 16 100 in
  counts.(0) <- 400;
  checkb "bias rejected" false (H.uniform_ok counts)

let test_serial_correlation () =
  checkf "constant" 0.0 (H.serial_correlation [| 2.0; 2.0; 2.0; 2.0 |]);
  checkf "too short" 0.0 (H.serial_correlation [| 1.0; 2.0 |]);
  let rng = Rng.of_int 37 in
  let samples = Array.init 5000 (fun _ -> Rng.float rng 1.0) in
  checkb "iid samples decorrelated" true
    (Float.abs (H.serial_correlation samples) < 0.05);
  let trending = Array.init 100 float_of_int in
  checkb "trend detected" true (H.serial_correlation trending > 0.9)

let test_committed_seed_bits_pass_chi_square () =
  (* Lemma B.17 at 1% significance: bits of seeds committed by SeedAlg,
     bucketed into 4-bit words, are uniform over 16 cells. *)
  let dual = Dualgraph.Geometric.clique 8 in
  let params = Localcast.Params.make_seed ~eps:0.1 ~delta:8 ~kappa:64 () in
  let counts = Array.make 16 0 in
  for trial = 1 to 40 do
    let rng = Rng.of_int (4000 + trial) in
    let nodes = Localcast.Seed_alg.network params ~rng ~n:8 in
    let trace, observer = Radiosim.Trace.recorder () in
    let (_ : int) =
      Radiosim.Engine.run ~observer ~dual
        ~scheduler:Radiosim.Scheduler.reliable_only ~nodes
        ~env:(Radiosim.Env.null ~name:"seed" ())
        ~rounds:(Localcast.Seed_alg.duration params)
        ()
    in
    let decisions = Localcast.Seed_spec.decisions_of_trace trace ~n:8 in
    let seen = Hashtbl.create 8 in
    Array.iter
      (List.iter (fun (_, { Localcast.Messages.owner; seed }) ->
           if not (Hashtbl.mem seen owner) then begin
             Hashtbl.add seen owner ();
             let cursor = Prng.Bitstring.cursor seed in
             for _ = 1 to Prng.Bitstring.length seed / 4 do
               let word = Prng.Bitstring.take_int cursor 4 in
               counts.(word) <- counts.(word) + 1
             done
           end))
      decisions
  done;
  checkb "committed seed words uniform (chi-square, 1%)" true
    (H.uniform_ok counts)

let suite =
  List.map (fun (name, f) -> Alcotest.test_case name `Quick f)
    [
      ("chi-square statistic", test_chi_square_statistic);
      ("chi-square uniform", test_chi_square_uniform);
      ("critical values", test_critical_values);
      ("uniformity accepted for rng", test_uniform_ok_accepts_rng);
      ("bias rejected", test_uniform_ok_rejects_bias);
      ("serial correlation", test_serial_correlation);
      ("committed seeds pass chi-square", test_committed_seed_bits_pass_chi_square);
    ]
