(* Tests for the higher-level abstract-MAC-layer applications:
   multi-message broadcast (a closed Serve batch), neighbor discovery
   and flood-max consensus. *)

open Core

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

module Dual = Dualgraph.Dual
module Geo = Dualgraph.Geometric
module Sch = Radiosim.Scheduler
module Params = Localcast.Params
module Serve = Macapps.Serve
module Workload = Macapps.Workload
module Discovery = Macapps.Discovery
module Consensus = Macapps.Consensus
module Rng = Prng.Rng

let params_for dual = Params.of_dual ~tack_phases:2 ~eps1:0.2 dual

let budget ~dual params =
  60 * Dual.n dual * params.Params.phase_len

(* --- multi-message broadcast: Serve over a closed batch --- *)

let multi ~params ~rng ~dual ~scheduler ~sources ~max_rounds =
  Serve.run
    ~config:(Serve.config ~ttl:max_rounds ())
    ~workload:
      (Workload.create ~process:(Batch { sources }) ~n:(Dual.n dual) ~seed:0 ())
    ~params ~rng ~dual ~scheduler ~rounds:max_rounds ()

let test_multi_single_source_equals_flood () =
  let dual = Geo.line ~n:4 ~spacing:0.9 () in
  let params = params_for dual in
  let result =
    multi ~params ~rng:(Rng.of_int 1) ~dual ~scheduler:Sch.reliable_only
      ~sources:[ 0 ] ~max_rounds:(budget ~dual params)
  in
  checki "one complete message" 1 result.Serve.completed;
  checkb "completed" true (Float.is_finite result.Serve.delivery_max);
  checki "every node got it" 4 result.Serve.first_receptions

let test_multi_three_sources () =
  let dual = Geo.line ~n:5 ~spacing:0.9 () in
  let params = params_for dual in
  let result =
    multi ~params ~rng:(Rng.of_int 2) ~dual
      ~scheduler:(Sch.bernoulli ~seed:2 ~p:0.5)
      ~sources:[ 0; 2; 4 ]
      ~max_rounds:(budget ~dual params)
  in
  checki "three complete messages" 3 result.Serve.completed;
  checkb "relays at least k" true (result.Serve.relays >= 3)

let test_multi_same_source_twice () =
  (* One node originating two messages serializes them through its MAC. *)
  let dual = Geo.pair () in
  let params = params_for dual in
  let result =
    multi ~params ~rng:(Rng.of_int 3) ~dual ~scheduler:Sch.reliable_only
      ~sources:[ 0; 0 ]
      ~max_rounds:(budget ~dual params)
  in
  checki "both complete" 2 result.Serve.completed

let test_multi_disconnected () =
  let g = Dualgraph.Graph.create ~n:3 ~edges:[ (0, 1) ] in
  let dual = Dual.create ~g ~g':g () in
  let params = params_for dual in
  let result =
    multi ~params ~rng:(Rng.of_int 4) ~dual ~scheduler:Sch.reliable_only
      ~sources:[ 0 ] ~max_rounds:(20 * params.Params.phase_len)
  in
  checki "incomplete" 0 result.Serve.completed;
  (* nodes 0 and 1 only: the island never hears it *)
  checki "island never reached" 2 result.Serve.first_receptions

let test_multi_source_validation () =
  let dual = Geo.pair () in
  let params = params_for dual in
  Alcotest.check_raises "range"
    (Invalid_argument "Workload.create: batch source out of range") (fun () ->
      ignore
        (multi ~params ~rng:(Rng.of_int 1) ~dual ~scheduler:Sch.reliable_only
           ~sources:[ 7 ] ~max_rounds:10))

(* --- neighbor discovery --- *)

let test_discovery_pair () =
  let dual = Geo.pair () in
  let params = params_for dual in
  let result =
    Discovery.run ~params ~rng:(Rng.of_int 5) ~dual ~scheduler:Sch.reliable_only
      ~max_rounds:(budget ~dual params) ()
  in
  checkb "complete" true result.Discovery.complete;
  checki "no missing pairs" 0 result.Discovery.missing_pairs;
  checki "no spurious pairs" 0 result.Discovery.spurious_pairs;
  Alcotest.check (Alcotest.list Alcotest.int) "0 discovered 1" [ 1 ]
    result.Discovery.discovered.(0)

let test_discovery_clique () =
  let dual = Geo.clique 5 in
  let params = params_for dual in
  let result =
    Discovery.run ~params ~rng:(Rng.of_int 6) ~dual
      ~scheduler:(Sch.bernoulli ~seed:6 ~p:0.5)
      ~max_rounds:(budget ~dual params) ()
  in
  checkb "complete" true result.Discovery.complete;
  Array.iteri
    (fun v discovered ->
      checki "found the other four" 4 (List.length discovered);
      checkb "never self" true (not (List.mem v discovered)))
    result.Discovery.discovered

let test_discovery_respects_validity () =
  (* Discovered sets never exceed the G'-neighborhood, under any
     scheduler — a direct corollary of LB validity. *)
  let dual =
    Geo.random_field ~rng:(Rng.of_int 7) ~n:20 ~width:3.0 ~height:3.0 ~r:1.5
      ~gray_g':0.7 ()
  in
  let params = params_for dual in
  let result =
    Discovery.run ~params ~rng:(Rng.of_int 8) ~dual ~scheduler:Sch.all_edges
      ~max_rounds:(30 * params.Params.phase_len) ()
  in
  checki "no spurious pairs" 0 result.Discovery.spurious_pairs

let test_discovery_singleton () =
  let dual = Geo.singleton () in
  let params = params_for dual in
  let result =
    Discovery.run ~params ~rng:(Rng.of_int 9) ~dual ~scheduler:Sch.reliable_only
      ~max_rounds:(5 * params.Params.phase_len) ()
  in
  checkb "trivially complete" true result.Discovery.complete;
  Alcotest.check (Alcotest.list Alcotest.int) "nothing to discover" []
    result.Discovery.discovered.(0)

(* --- consensus --- *)

let test_consensus_line () =
  let dual = Geo.line ~n:5 ~spacing:0.9 () in
  let params = params_for dual in
  let inputs = [| 7; 3; 9; 1; 5 |] in
  let result =
    Consensus.run ~params ~rng:(Rng.of_int 10) ~dual
      ~scheduler:(Sch.bernoulli ~seed:10 ~p:0.5)
      ~inputs
      ~max_rounds:(budget ~dual params)
      ()
  in
  checkb "converged" true result.Consensus.converged;
  checkb "agreement" true result.Consensus.agreement;
  checkb "valid (max id's input wins)" true result.Consensus.valid;
  checki "decided 5" 5 result.Consensus.decisions.(0)

let test_consensus_clique () =
  let dual = Geo.clique 6 in
  let params = params_for dual in
  let inputs = [| 1; 2; 3; 4; 5; 42 |] in
  let result =
    Consensus.run ~params ~rng:(Rng.of_int 11) ~dual ~scheduler:Sch.reliable_only
      ~inputs ~max_rounds:(budget ~dual params) ()
  in
  checkb "agreement" true result.Consensus.agreement;
  checki "node 5's value everywhere" 42 result.Consensus.decisions.(2)

let test_consensus_singleton () =
  let dual = Geo.singleton () in
  let params = params_for dual in
  let result =
    Consensus.run ~params ~rng:(Rng.of_int 12) ~dual ~scheduler:Sch.reliable_only
      ~inputs:[| 13 |] ~max_rounds:(3 * params.Params.phase_len) ()
  in
  checkb "agreement" true result.Consensus.agreement;
  checkb "valid" true result.Consensus.valid;
  checki "own value" 13 result.Consensus.decisions.(0)

let test_consensus_validation () =
  let dual = Geo.pair () in
  let params = params_for dual in
  Alcotest.check_raises "length" (Invalid_argument "Consensus.run: inputs length mismatch")
    (fun () ->
      ignore
        (Consensus.run ~params ~rng:(Rng.of_int 1) ~dual
           ~scheduler:Sch.reliable_only ~inputs:[| 1 |] ~max_rounds:10 ()));
  Alcotest.check_raises "range"
    (Invalid_argument "Consensus.run: input outside [0, value_base)") (fun () ->
      ignore
        (Consensus.run ~params ~rng:(Rng.of_int 1) ~dual
           ~scheduler:Sch.reliable_only
           ~inputs:[| 1; Consensus.value_base |]
           ~max_rounds:10 ()))

let suite =
  List.map (fun (name, f) -> Alcotest.test_case name `Quick f)
    [
      ("multi: single source equals flood", test_multi_single_source_equals_flood);
      ("multi: three sources", test_multi_three_sources);
      ("multi: same source twice", test_multi_same_source_twice);
      ("multi: disconnected island", test_multi_disconnected);
      ("multi: source validation", test_multi_source_validation);
      ("discovery: pair", test_discovery_pair);
      ("discovery: clique", test_discovery_clique);
      ("discovery: validity corollary", test_discovery_respects_validity);
      ("discovery: singleton", test_discovery_singleton);
      ("consensus: line", test_consensus_line);
      ("consensus: clique", test_consensus_clique);
      ("consensus: singleton", test_consensus_singleton);
      ("consensus: validation", test_consensus_validation);
    ]
