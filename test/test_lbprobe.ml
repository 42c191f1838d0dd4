(* Tests for the Lb_probe trace analytics (test/oracle). *)

open Core

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

module Dual = Dualgraph.Dual
module Geo = Dualgraph.Geometric
module Sch = Radiosim.Scheduler
module Trace = Radiosim.Trace
module M = Localcast.Messages
module Params = Localcast.Params
module Lb_alg = Localcast.Lb_alg
module Lb_env = Localcast.Lb_env
module Probe = Oracle.Lb_probe
module Rng = Prng.Rng

let run ~dual ~params ~senders ~phases ~scheduler ~rng_seed =
  let n = Dual.n dual in
  let nodes = Lb_alg.network params ~rng:(Rng.of_int rng_seed) ~n in
  let envt = Lb_env.saturate ~n ~senders () in
  let trace, observer = Trace.recorder () in
  let (_ : int) =
    Radiosim.Engine.run ~observer ~dual ~scheduler ~nodes
      ~env:(Lb_env.env envt)
      ~rounds:(phases * params.Params.phase_len)
      ()
  in
  trace

let test_contention_partition () =
  let dual = Geo.clique 6 in
  let params = Params.of_dual ~tack_phases:3 ~eps1:0.2 dual in
  let scheduler = Sch.reliable_only in
  let trace =
    run ~dual ~params ~senders:[ 1; 2; 3; 4; 5 ] ~phases:3 ~scheduler ~rng_seed:1
  in
  let c = Probe.contention_profile ~dual ~scheduler ~params ~node:0 trace in
  checki "classes partition body rounds" c.Probe.body_rounds
    (c.Probe.silent + c.Probe.single + c.Probe.collision);
  checki "body rounds counted" (3 * params.Params.tprog) c.Probe.body_rounds;
  checkb "some singles occur" true (c.Probe.single > 0)

let test_reception_rate_matches_deliveries () =
  (* The probe's single-transmitter count must equal the engine's clean
     deliveries at a receiver that always listens. *)
  let dual = Geo.clique 4 in
  let params = Params.of_dual ~tack_phases:3 ~eps1:0.2 dual in
  let scheduler = Sch.reliable_only in
  let trace = run ~dual ~params ~senders:[ 1; 2; 3 ] ~phases:2 ~scheduler ~rng_seed:2 in
  let c = Probe.contention_profile ~dual ~scheduler ~params ~node:0 trace in
  let deliveries =
    List.length
      (List.filter
         (fun (round, m) ->
           (not (Lb_alg.is_preamble_round params round))
           && match m with M.Data _ -> true | M.Seed_msg _ -> false)
         (Trace.deliveries_of trace 0))
  in
  checki "probe singles = clean data deliveries" deliveries c.Probe.single

let test_reception_rate_zero_when_empty () =
  let c = { Probe.body_rounds = 0; silent = 0; single = 0; collision = 0 } in
  Alcotest.check (Alcotest.float 1e-9) "empty" 0.0 (Probe.reception_rate c)

let test_committed_owners () =
  let dual = Geo.clique 5 in
  let params = Params.of_dual ~tack_phases:2 ~eps1:0.2 dual in
  let trace =
    run ~dual ~params ~senders:[ 0 ] ~phases:2 ~scheduler:Sch.reliable_only
      ~rng_seed:3
  in
  let owners = Probe.committed_owners ~params ~n:5 ~phase:0 trace in
  Array.iteri
    (fun v owner ->
      match owner with
      | Some o -> checkb (Printf.sprintf "node %d owner valid" v) true (o >= 0 && o < 5)
      | None -> Alcotest.fail "missing commit in phase 0")
    owners;
  (* Groups in a clique neighborhood = distinct owners overall. *)
  let distinct =
    Array.to_list owners
    |> List.filter_map Fun.id
    |> List.sort_uniq Int.compare
    |> List.length
  in
  checki "neighborhood groups" distinct
    (Probe.groups_in_neighborhood ~dual ~owners ~node:0)

let test_committed_owners_out_of_range_phase () =
  let dual = Geo.pair () in
  let params = Params.of_dual ~tack_phases:2 ~eps1:0.2 dual in
  let trace =
    run ~dual ~params ~senders:[ 0 ] ~phases:1 ~scheduler:Sch.reliable_only
      ~rng_seed:4
  in
  let owners = Probe.committed_owners ~params ~n:2 ~phase:7 trace in
  checkb "uncovered phase yields None" true (Array.for_all (( = ) None) owners)

let test_groups_bounded_by_delta () =
  (* Lemma C.1's premise on a real run: the number of groups in any
     neighborhood stays below the spec's δ. *)
  let dual =
    Geo.random_field ~rng:(Rng.of_int 5) ~n:30 ~width:3.0 ~height:3.0 ~r:1.5 ()
  in
  let params = Params.of_dual ~tack_phases:2 ~eps1:0.1 dual in
  let trace =
    run ~dual ~params ~senders:[ 0 ]
      ~phases:1
      ~scheduler:(Sch.bernoulli ~seed:5 ~p:0.5)
      ~rng_seed:5
  in
  let owners = Probe.committed_owners ~params ~n:30 ~phase:0 trace in
  for u = 0 to 29 do
    checkb "groups <= delta bound" true
      (Probe.groups_in_neighborhood ~dual ~owners ~node:u
      <= params.Params.delta_bound)
  done

let suite =
  List.map (fun (name, f) -> Alcotest.test_case name `Quick f)
    [
      ("contention partitions body rounds", test_contention_partition);
      ("singles equal clean deliveries", test_reception_rate_matches_deliveries);
      ("reception rate on empty", test_reception_rate_zero_when_empty);
      ("committed owners", test_committed_owners);
      ("uncovered phase", test_committed_owners_out_of_range_phase);
      ("groups bounded by delta", test_groups_bounded_by_delta);
    ]
