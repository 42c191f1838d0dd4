(* Tests for seed agreement: parameter derivation, the Seed_core state
   machine, full SeedAlg executions against the Seed(δ, ε) spec, and the
   statistical independence properties (Lemmas B.17/B.18). *)

open Core

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

module Dual = Dualgraph.Dual
module Geo = Dualgraph.Geometric
module Sch = Radiosim.Scheduler
module Engine = Radiosim.Engine
module Trace = Radiosim.Trace
module Env = Radiosim.Env
module M = Localcast.Messages
module Params = Localcast.Params
module Seed_core = Localcast.Seed_core
module Seed_alg = Localcast.Seed_alg
module Seed_spec = Localcast.Seed_spec
module Rng = Prng.Rng
module Bits = Prng.Bitstring

let seed_params ?(eps = 0.1) ?(delta = 8) ?(kappa = 32) () =
  Params.make_seed ~eps ~delta ~kappa ()

(* Run SeedAlg on a topology and return (trace, decisions). *)
let run_seed ?(scheduler = Sch.reliable_only) ?(rng_seed = 42) ~params dual =
  let n = Dual.n dual in
  let rng = Rng.of_int rng_seed in
  let nodes = Seed_alg.network params ~rng ~n in
  let trace, obs = Trace.recorder () in
  let env = Env.null ~name:"seed" () in
  let (_ : int) =
    Engine.run ~observer:obs ~dual ~scheduler ~nodes ~env
      ~rounds:(Seed_alg.duration params)
      ()
  in
  (trace, Seed_spec.decisions_of_trace trace ~n)

(* --- parameter derivation --- *)

let test_params_phases () =
  let phases delta = (seed_params ~delta ()).Params.phases in
  checki "delta 1" 1 (phases 1);
  checki "delta 2" 1 (phases 2);
  checki "delta 3" 2 (phases 3);
  checki "delta 16" 4 (phases 16);
  checki "delta 17" 5 (phases 17)

let test_params_phase_len_scales () =
  let len eps = (seed_params ~eps ()).Params.phase_len in
  (* phase length grows as log²(1/ε) *)
  checkb "smaller eps, longer phase" true (len 0.01 > len 0.1);
  checkb "clamped at 1/4" true (len 0.4 = len 0.25)

let test_params_broadcast_prob () =
  let p = (seed_params ~eps:0.25 ()).Params.broadcast_prob in
  Alcotest.check (Alcotest.float 1e-9) "eps=1/4 gives 1/2" 0.5 p;
  let p2 = (seed_params ~eps:0.01 ()).Params.broadcast_prob in
  checkb "smaller eps, smaller prob" true (p2 < p)

let test_params_validation () =
  Alcotest.check_raises "delta" (Invalid_argument "Params.make_seed: delta must be >= 1")
    (fun () -> ignore (seed_params ~delta:0 ()));
  Alcotest.check_raises "kappa" (Invalid_argument "Params.make_seed: kappa must be >= 1")
    (fun () -> ignore (seed_params ~kappa:0 ()));
  Alcotest.check_raises "eps" (Invalid_argument "Params: error bound must be positive")
    (fun () -> ignore (seed_params ~eps:0.0 ()))

(* --- Seed_core state machine --- *)

let test_core_initial () =
  let params = seed_params () in
  let core = Seed_core.create params ~id:3 ~rng:(Rng.of_int 1) in
  checkb "starts active" true (Seed_core.status core = Seed_core.Active);
  checkb "no decision yet" true (Seed_core.decision core = None);
  checki "seed length = kappa" 32 (Bits.length (Seed_core.initial_seed core));
  checki "duration" (Params.seed_duration params) (Seed_core.duration core)

let test_core_round_range () =
  let core = Seed_core.create (seed_params ()) ~id:0 ~rng:(Rng.of_int 1) in
  Alcotest.check_raises "out of range"
    (Invalid_argument "Seed_core.decide_action: local round out of range")
    (fun () -> ignore (Seed_core.decide_action core ~local_round:(-1)))

let test_core_default_decision () =
  (* With Δ = 1 there is one phase with leader probability 1/2; drive a
     machine to the end and finalize: it must decide its own seed. *)
  let params = seed_params ~delta:1 () in
  let core = Seed_core.create params ~id:7 ~rng:(Rng.of_int 2) in
  for round = 0 to Seed_core.duration core - 1 do
    let (_ : M.msg Radiosim.Process.action) =
      Seed_core.decide_action core ~local_round:round
    in
    Seed_core.absorb core ~local_round:round None
  done;
  Seed_core.finalize core;
  (match Seed_core.decision core with
  | Some { M.owner; seed } ->
      checki "own id" 7 owner;
      checkb "own seed" true (Bits.equal seed (Seed_core.initial_seed core))
  | None -> Alcotest.fail "no decision after finalize")

(* [create] skips the seed's κ draws and builds the seed on first use:
   the generator's next draw after [create] is the one an eager draw
   leaves, and the seed, however late it is first read — by a leader
   election, by [finalize], or by [initial_seed] after the machine has
   drawn its coins — is the eager one. *)
let seed_built_late_matches_eager (seed, kappa, delta, rounds) =
  let params = seed_params ~delta ~kappa () in
  let eager_rng = Rng.create seed in
  let eager = Bits.random eager_rng kappa in
  let rng = Rng.create seed in
  let core = Seed_core.create params ~id:5 ~rng in
  let next = Rng.bits64 (Rng.copy rng) in
  let rounds = min rounds (Seed_core.duration core) in
  for round = 0 to rounds - 1 do
    let (_ : M.msg Radiosim.Process.action) =
      Seed_core.decide_action core ~local_round:round
    in
    Seed_core.absorb core ~local_round:round None
  done;
  if rounds = Seed_core.duration core then Seed_core.finalize core;
  let own =
    match Seed_core.decision core with
    | Some { M.seed; _ } -> seed
    | None -> Seed_core.initial_seed core
  in
  (next = Rng.bits64 eager_rng
  || QCheck.Test.fail_report "create moved the generator elsewhere than kappa draws on")
  && (Bits.equal own eager || QCheck.Test.fail_report "the late seed differs from the eager one")
  && Bits.equal (Seed_core.initial_seed core) eager

let qcheck_cases =
  [
    QCheck.Test.make ~name:"core seed built on first use equals the eager draw" ~count:200
      QCheck.(
        quad
          (make ~print:Int64.to_string Gen.(oneof [ ui64; map Int64.neg ui64; map Int64.of_int int ]))
          (int_range 1 5000) (int_range 1 64) (int_bound 400))
      seed_built_late_matches_eager;
  ]

let test_core_adopts_received_seed () =
  let params = seed_params ~delta:16 () in
  (* Find an rng that keeps the node a non-leader at phase 1 (leader
     probability 1/16 — seed 1 virtually surely works; assert it). *)
  let core = Seed_core.create params ~id:1 ~rng:(Rng.of_int 1) in
  let (_ : M.msg Radiosim.Process.action) = Seed_core.decide_action core ~local_round:0 in
  checkb "still active (non-leader)" true (Seed_core.status core = Seed_core.Active);
  let foreign = { M.owner = 9; seed = Bits.of_string "1010" } in
  Seed_core.absorb core ~local_round:0 (Some (M.Seed_msg foreign));
  checkb "inactive after adopting" true (Seed_core.status core = Seed_core.Inactive);
  (match Seed_core.decision core with
  | Some { M.owner; seed } ->
      checki "foreign owner" 9 owner;
      checkb "foreign seed" true (Bits.equal seed foreign.M.seed)
  | None -> Alcotest.fail "expected decision");
  (* The event fires exactly once. *)
  checkb "event present" true (Seed_core.take_event core <> None);
  checkb "event consumed" true (Seed_core.take_event core = None)

let test_core_inactive_ignores () =
  let params = seed_params ~delta:16 () in
  let core = Seed_core.create params ~id:1 ~rng:(Rng.of_int 1) in
  let (_ : M.msg Radiosim.Process.action) = Seed_core.decide_action core ~local_round:0 in
  Seed_core.absorb core ~local_round:0
    (Some (M.Seed_msg { M.owner = 9; seed = Bits.of_string "1" }));
  let (_ : M.seed_announcement option) = Seed_core.take_event core in
  Seed_core.absorb core ~local_round:1
    (Some (M.Seed_msg { M.owner = 5; seed = Bits.of_string "0" }));
  (match Seed_core.decision core with
  | Some { M.owner; _ } -> checki "first decision kept" 9 owner
  | None -> Alcotest.fail "expected decision");
  checkb "no second event" true (Seed_core.take_event core = None)

let test_core_leader_probability_last_phase () =
  (* At the final phase the election probability is 1/2: statistically
     verify over many singleton machines. *)
  let params = seed_params ~delta:2 () in
  let rng = Rng.of_int 5 in
  let leaders = ref 0 in
  let n = 4000 in
  for _ = 1 to n do
    let core = Seed_core.create params ~id:0 ~rng:(Rng.split rng) in
    let (_ : M.msg Radiosim.Process.action) =
      Seed_core.decide_action core ~local_round:0
    in
    match Seed_core.status core with
    | Seed_core.Leader _ -> incr leaders
    | _ -> ()
  done;
  let rate = float_of_int !leaders /. float_of_int n in
  checkb "election rate near 1/2" true (Float.abs (rate -. 0.5) < 0.03)

let test_core_leader_broadcast_rate () =
  let params = seed_params ~eps:0.25 ~delta:2 () in
  (* broadcast_prob = 1/2 at eps = 1/4 *)
  let rng = Rng.of_int 6 in
  let transmissions = ref 0 and rounds = ref 0 in
  for _ = 1 to 500 do
    let core = Seed_core.create params ~id:0 ~rng:(Rng.split rng) in
    for round = 0 to Seed_core.duration core - 1 do
      (match Seed_core.decide_action core ~local_round:round with
      | Radiosim.Process.Transmit _ -> incr transmissions
      | Radiosim.Process.Listen -> ());
      (match Seed_core.status core with
      | Seed_core.Leader _ -> incr rounds
      | _ -> ());
      Seed_core.absorb core ~local_round:round None
    done
  done;
  let rate = float_of_int !transmissions /. float_of_int (max 1 !rounds) in
  checkb "leader transmits at broadcast_prob" true (Float.abs (rate -. 0.5) < 0.05)

(* --- full executions vs the spec --- *)

let test_singleton_decides_self () =
  let params = seed_params ~delta:1 () in
  let dual = Geo.singleton () in
  let _, decisions = run_seed ~params dual in
  (match decisions.(0) with
  | [ (_, { M.owner; _ }) ] -> checki "own seed" 0 owner
  | _ -> Alcotest.fail "expected exactly one decision")

let test_pair_spec () =
  let params = seed_params ~delta:2 () in
  let dual = Geo.pair () in
  let _, decisions = run_seed ~params dual in
  let report = Seed_spec.check ~dual ~delta_bound:2 ~decisions in
  checkb "well formed" true report.Seed_spec.well_formed;
  checkb "consistent" true report.Seed_spec.consistent

let test_clique_spec_holds () =
  let dual = Geo.clique 32 in
  let params = seed_params ~delta:32 ~eps:0.1 () in
  let _, decisions = run_seed ~params dual in
  let report = Seed_spec.check ~dual ~delta_bound:8 ~decisions in
  checkb "well formed" true report.Seed_spec.well_formed;
  checkb "consistent" true report.Seed_spec.consistent;
  checkb "few owners in clique" true (report.Seed_spec.max_owners <= 8)

let test_decides_within_duration () =
  let dual = Geo.clique 16 in
  let params = seed_params ~delta:16 () in
  let _, decisions = run_seed ~params dual in
  Array.iter
    (List.iter (fun (round, _) ->
         checkb "decide inside algorithm window" true
           (round < Seed_alg.duration params)))
    decisions

let test_owners_are_vertices_with_own_seed () =
  (* Lemma B.1 shape: every decided owner is a real vertex, and (via
     consistency) its seed matches every other commitment to that owner. *)
  let dual = Geo.clique 16 in
  let params = seed_params ~delta:16 () in
  let _, decisions = run_seed ~params dual in
  let owner_seed = Hashtbl.create 16 in
  Array.iter
    (List.iter (fun (_, { M.owner; seed }) ->
         checkb "owner in range" true (owner >= 0 && owner < 16);
         (match Hashtbl.find_opt owner_seed owner with
         | None -> Hashtbl.add owner_seed owner seed
         | Some s -> checkb "single seed per owner" true (Bits.equal s seed))))
    decisions

let test_agreement_across_random_fields () =
  (* The spec's agreement condition, empirically: across random geometric
     topologies and an adversarial scheduler, neighborhoods commit to few
     distinct owners. *)
  let failures = ref 0 in
  let trials = 20 in
  for t = 1 to trials do
    let rng = Rng.of_int (1000 + t) in
    let dual =
      Geo.random_field ~rng ~n:40 ~width:4.0 ~height:4.0 ~r:1.5 ~gray_g':0.6 ()
    in
    let params =
      Params.make_seed ~eps:0.05 ~delta:(Dual.delta dual) ~kappa:16 ()
    in
    let _, decisions =
      run_seed ~params ~rng_seed:t ~scheduler:(Sch.bernoulli ~seed:t ~p:0.5) dual
    in
    let report = Seed_spec.check ~dual ~delta_bound:30 ~decisions in
    if not
         (report.Seed_spec.well_formed && report.Seed_spec.consistent
         && report.Seed_spec.violation_count = 0)
    then incr failures
  done;
  checkb "agreement holds on random fields" true (!failures = 0)

let test_agreement_under_thwart_scheduler () =
  let dual = Geo.gray_cluster ~k:8 ~r:1.5 () in
  let params = Params.make_seed ~eps:0.05 ~delta:(Dual.delta dual) ~kappa:16 () in
  let _, decisions =
    run_seed ~params ~scheduler:(Sch.thwart ~hot:(fun r -> r mod 3 < 2)) dual
  in
  let report = Seed_spec.check ~dual ~delta_bound:30 ~decisions in
  checkb "well formed under adversary" true report.Seed_spec.well_formed;
  checkb "agreement under adversary" true (report.Seed_spec.violation_count = 0)

(* --- independence (Lemmas B.17 / B.18) --- *)

let test_committed_seed_bits_balanced () =
  let dual = Geo.clique 8 in
  let params = seed_params ~delta:8 ~kappa:64 () in
  let announcements = ref [] in
  for t = 1 to 40 do
    let _, decisions = run_seed ~params ~rng_seed:t dual in
    (* one announcement per distinct owner per run *)
    let seen = Hashtbl.create 8 in
    Array.iter
      (List.iter (fun (_, ({ M.owner; _ } as a)) ->
           if not (Hashtbl.mem seen owner) then begin
             Hashtbl.add seen owner ();
             announcements := a :: !announcements
           end))
      decisions
  done;
  let balance = Seed_spec.bit_balance !announcements in
  checkb "committed bits are fair coins" true (Float.abs (balance -. 0.5) < 0.05)

let test_distinct_owner_seeds_independent () =
  let dual = Geo.clique 8 in
  let params = seed_params ~delta:8 ~kappa:256 () in
  let agreements = ref [] in
  for t = 1 to 30 do
    let _, decisions = run_seed ~params ~rng_seed:(500 + t) dual in
    let by_owner = Hashtbl.create 8 in
    Array.iter
      (List.iter (fun (_, { M.owner; seed }) -> Hashtbl.replace by_owner owner seed))
      decisions;
    let seeds = Hashtbl.fold (fun _ s acc -> s :: acc) by_owner [] in
    match seeds with
    | a :: b :: _ -> agreements := Seed_spec.cross_agreement a b :: !agreements
    | _ -> ()
  done;
  (* Pairs exist in most runs; their agreement rate must hover near 1/2. *)
  checkb "collected some pairs" true (List.length !agreements >= 5);
  let mean = Stats.Summary.mean !agreements in
  checkb "cross-owner seeds uncorrelated" true (Float.abs (mean -. 0.5) < 0.06)

let test_bit_balance_empty () =
  Alcotest.check (Alcotest.float 1e-9) "empty is 1/2" 0.5 (Seed_spec.bit_balance [])

let test_spec_detects_inconsistency () =
  let dual = Geo.pair () in
  let decisions =
    [|
      [ (0, { M.owner = 0; seed = Bits.of_string "11" }) ];
      [ (0, { M.owner = 0; seed = Bits.of_string "00" }) ];
    |]
  in
  let report = Seed_spec.check ~dual ~delta_bound:5 ~decisions in
  checkb "inconsistency flagged" false report.Seed_spec.consistent

let test_spec_detects_missing_decide () =
  let dual = Geo.pair () in
  let decisions = [| [ (0, { M.owner = 0; seed = Bits.of_string "1" }) ]; [] |] in
  let report = Seed_spec.check ~dual ~delta_bound:5 ~decisions in
  checkb "missing decide flagged" false report.Seed_spec.well_formed

let test_spec_counts_owners () =
  let dual = Geo.clique 3 in
  let mk owner = [ (0, { M.owner; seed = Bits.of_string "1" }) ] in
  let decisions = [| mk 0; mk 1; mk 2 |] in
  let report = Seed_spec.check ~dual ~delta_bound:2 ~decisions in
  checki "max owners" 3 report.Seed_spec.max_owners;
  checki "all three violate δ=2" 3 report.Seed_spec.violation_count;
  let report2 = Seed_spec.check ~dual ~delta_bound:3 ~decisions in
  checki "δ=3 fine" 0 report2.Seed_spec.violation_count

let test_spec_owners_helper () =
  let dual = Geo.pair () in
  ignore dual;
  let decisions =
    [|
      [ (0, { M.owner = 1; seed = Bits.of_string "1" }) ];
      [ (0, { M.owner = 1; seed = Bits.of_string "1" }) ];
    |]
  in
  Alcotest.check (Alcotest.array Alcotest.int) "owners" [| 1; 1 |]
    (Seed_spec.owners ~decisions);
  Alcotest.check_raises "not well formed"
    (Invalid_argument "Seed_spec.owners: execution is not well-formed") (fun () ->
      ignore (Seed_spec.owners ~decisions:[| []; [] |]))

let suite =
  List.map (fun (name, f) -> Alcotest.test_case name `Quick f)
    [
      ("params phases", test_params_phases);
      ("params phase length scaling", test_params_phase_len_scales);
      ("params broadcast prob", test_params_broadcast_prob);
      ("params validation", test_params_validation);
      ("core initial state", test_core_initial);
      ("core round range", test_core_round_range);
      ("core default decision", test_core_default_decision);
      ("core adopts received seed", test_core_adopts_received_seed);
      ("core inactive ignores", test_core_inactive_ignores);
      ("core leader prob last phase", test_core_leader_probability_last_phase);
      ("core leader broadcast rate", test_core_leader_broadcast_rate);
      ("singleton decides self", test_singleton_decides_self);
      ("pair spec", test_pair_spec);
      ("clique spec holds", test_clique_spec_holds);
      ("decides within duration", test_decides_within_duration);
      ("owners are vertices", test_owners_are_vertices_with_own_seed);
      ("agreement on random fields", test_agreement_across_random_fields);
      ("agreement under thwart", test_agreement_under_thwart_scheduler);
      ("seed bits balanced", test_committed_seed_bits_balanced);
      ("cross-owner independence", test_distinct_owner_seeds_independent);
      ("bit balance empty", test_bit_balance_empty);
      ("spec detects inconsistency", test_spec_detects_inconsistency);
      ("spec detects missing decide", test_spec_detects_missing_decide);
      ("spec counts owners", test_spec_counts_owners);
      ("spec owners helper", test_spec_owners_helper);
    ]
  @ List.map QCheck_alcotest.to_alcotest qcheck_cases
