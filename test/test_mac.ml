(* Tests for the abstract MAC layer adapter and the flood over it (a
   one-message Serve batch), held to a frozen copy of the flood it
   replaced. *)

open Core

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

module Dual = Dualgraph.Dual
module Geo = Dualgraph.Geometric
module Sch = Radiosim.Scheduler
module M = Localcast.Messages
module Params = Localcast.Params
module Mac = Localcast.Mac
module Serve = Macapps.Serve
module Workload = Macapps.Workload
module Rng = Prng.Rng

let mk_mac ?callbacks ?(tack_phases = 2) dual =
  let params = Params.of_dual ~tack_phases ~eps1:0.2 dual in
  (params, Mac.create ?callbacks ~params ~rng:(Rng.of_int 11) ~dual ())

let test_request_busy_lifecycle () =
  let dual = Geo.pair () in
  let _, mac = mk_mac dual in
  checkb "idle initially" false (Mac.busy mac ~node:0);
  checkb "request accepted" true (Mac.request mac ~node:0 ~tag:5);
  checkb "busy while outstanding" true (Mac.busy mac ~node:0);
  checkb "second request refused" false (Mac.request mac ~node:0 ~tag:5);
  checkb "other node unaffected" false (Mac.busy mac ~node:1)

let test_bounds_match_params () =
  let dual = Geo.pair () in
  let params, mac = mk_mac dual in
  checki "f_prog = t_prog" (Params.t_prog_rounds params) (Mac.f_prog mac);
  checki "f_ack = t_ack" (Params.t_ack_rounds params) (Mac.f_ack mac)

let test_events_fire () =
  let dual = Geo.pair () in
  let recvs = ref [] and acks = ref [] in
  let callbacks =
    {
      Mac.on_recv = (fun ~node ~round:_ p -> recvs := (node, p) :: !recvs);
      on_ack = (fun ~node ~round:_ p -> acks := (node, p) :: !acks);
    }
  in
  let params, mac = mk_mac ~callbacks dual in
  checkb "request" true (Mac.request mac ~node:0 ~tag:7);
  let (_ : int) =
    Mac.run mac ~scheduler:Sch.reliable_only ~rounds:(4 * params.Params.phase_len)
  in
  checkb "neighbor received" true
    (List.exists (fun (node, p) -> node = 1 && p.M.tag = 7) !recvs);
  checkb "sender acked" true
    (List.exists (fun (node, p) -> node = 0 && p.M.tag = 7) !acks);
  checkb "idle again after ack" false (Mac.busy mac ~node:0)

let test_run_once_only () =
  let dual = Geo.pair () in
  let _, mac = mk_mac dual in
  let (_ : int) = Mac.run mac ~scheduler:Sch.reliable_only ~rounds:1 in
  Alcotest.check_raises "second run" (Invalid_argument "Mac.run: already run")
    (fun () -> ignore (Mac.run mac ~scheduler:Sch.reliable_only ~rounds:1))

let flood_params dual = Params.of_dual ~tack_phases:2 ~eps1:0.2 dual

(* A one-message flood is Serve over the batch [source], with the round
   budget as ttl: the message can only complete or run out of rounds. *)
let flood ~params ~rng ~dual ~scheduler ~source ~max_rounds =
  Serve.run
    ~config:(Serve.config ~ttl:max_rounds ())
    ~workload:
      (Workload.create
         ~process:(Batch { sources = [ source ] })
         ~n:(Dual.n dual) ~seed:0 ())
    ~params ~rng ~dual ~scheduler ~rounds:max_rounds ()

let test_flood_pair () =
  let dual = Geo.pair () in
  let params = flood_params dual in
  let result =
    flood ~params ~rng:(Rng.of_int 21) ~dual ~scheduler:Sch.reliable_only
      ~source:0
      ~max_rounds:(10 * params.Localcast.Params.phase_len)
  in
  checki "both covered" 2 result.Serve.first_receptions;
  checki "completed" 1 result.Serve.completed;
  (* admission covers the source *)
  checki "source covered" 1 result.Serve.admitted

let test_flood_line_multihop () =
  let dual = Geo.line ~n:5 ~spacing:0.9 () in
  let params = flood_params dual in
  let result =
    flood ~params ~rng:(Rng.of_int 22) ~dual ~scheduler:Sch.reliable_only
      ~source:0
      ~max_rounds:(60 * params.Localcast.Params.phase_len)
  in
  checki "line fully covered" 5 result.Serve.first_receptions;
  checkb "needed relays" true (result.Serve.relays >= 2);
  checkb "relays bounded by n" true (result.Serve.relays <= 5)

let test_flood_respects_topology () =
  (* Flooding never reaches a node with no path in G'. *)
  let g = Dualgraph.Graph.create ~n:3 ~edges:[ (0, 1) ] in
  let dual = Dual.create ~g ~g':g () in
  let params = flood_params dual in
  let result =
    flood ~params ~rng:(Rng.of_int 23) ~dual ~scheduler:Sch.reliable_only
      ~source:0
      ~max_rounds:(10 * params.Localcast.Params.phase_len)
  in
  checki "island not covered" 2 result.Serve.first_receptions;
  checki "no completion" 0 result.Serve.completed

let test_flood_source_validation () =
  let dual = Geo.pair () in
  let params = flood_params dual in
  Alcotest.check_raises "source range"
    (Invalid_argument "Workload.create: batch source out of range") (fun () ->
      ignore
        (flood ~params ~rng:(Rng.of_int 1) ~dual ~scheduler:Sch.reliable_only
           ~source:5 ~max_rounds:10))

let test_flood_latency_grows_with_diameter () =
  let latency n =
    let dual = Geo.line ~n ~spacing:0.9 () in
    let params = flood_params dual in
    let result =
      flood ~params ~rng:(Rng.of_int 24) ~dual ~scheduler:Sch.reliable_only
        ~source:0
        ~max_rounds:(200 * params.Localcast.Params.phase_len)
    in
    if result.Serve.completed = 1 then result.Serve.delivery_max
    else Alcotest.fail "flood did not complete"
  in
  checkb "longer line takes longer" true (latency 8 > latency 2)

(* Random flood arenas for the oracle properties: a line (n = 2..8,
   with 2-hop unreliable shortcuts) or a small random field, an
   oblivious scheduler from the zoo, either end as source, and a round
   budget of 1 round to 3 phases, so that some floods run out of it. *)
type flood_arena = {
  dual : Dual.t;
  scheduler : Sch.t;
  source : int;
  seed : int;
  budget_quarters : int;  (** round budget in quarter phases, plus one *)
}

let flood_arena_gen =
  QCheck.Gen.(
    let* field = bool in
    let* n = 2 -- 8 in
    let* seed = 0 -- 10_000 in
    let* far_end = bool in
    let* sched = 0 -- 4 in
    let* budget_quarters = 0 -- 12 in
    let dual =
      if field then
        Geo.random_field ~rng:(Rng.of_int seed) ~n ~width:2.0 ~height:2.0
          ~r:1.5 ~gray_g':0.5 ()
      else Geo.line ~n ~spacing:0.9 ~r:2.0 ()
    in
    let scheduler =
      match sched with
      | 0 -> Sch.reliable_only
      | 1 -> Sch.all_edges
      | 2 -> Sch.bernoulli ~seed ~p:0.5
      | 3 -> Sch.bernoulli_sparse ~seed ~p:0.3
      | _ -> Sch.flicker ~period:16 ~duty:8
    in
    return
      { dual; scheduler; source = (if far_end then n - 1 else 0); seed;
        budget_quarters })

let flood_arena_arb =
  QCheck.make flood_arena_gen ~print:(fun a ->
      Printf.sprintf "n=%d source=%d scheduler=%s seed=%d budget=%d/4 phases"
        (Dual.n a.dual) a.source (Sch.name a.scheduler) a.seed a.budget_quarters)

let flood_budget ~phase_len a = 1 + (a.budget_quarters * phase_len / 4)

let qcheck_cases =
  [
    QCheck.Test.make ~name:"batch flood over Serve equals the frozen Flood.run"
      ~count:100 flood_arena_arb (fun a ->
        let params = flood_params a.dual in
        let max_rounds = flood_budget ~phase_len:params.Params.phase_len a in
        let frozen =
          Oracle.Flood.run ~params ~rng:(Rng.of_int a.seed) ~dual:a.dual
            ~scheduler:a.scheduler ~source:a.source ~max_rounds ()
        in
        let r =
          flood ~params ~rng:(Rng.of_int a.seed) ~dual:a.dual
            ~scheduler:a.scheduler ~source:a.source ~max_rounds
        in
        let completion =
          if r.Serve.completed = 1 then Some (int_of_float r.Serve.delivery_max)
          else None
        in
        (* the node that completes coverage no longer relays *)
        let relays_expected =
          frozen.Oracle.Flood.relays
          - if frozen.Oracle.Flood.completion_round <> None then 1 else 0
        in
        r.Serve.audit = []
        && r.Serve.first_receptions = frozen.Oracle.Flood.covered_count
        && completion = frozen.Oracle.Flood.completion_round
        && r.Serve.rounds = frozen.Oracle.Flood.rounds_executed
        && r.Serve.relays = relays_expected);
  ]

let suite =
  List.map (fun (name, f) -> Alcotest.test_case name `Quick f)
    [
      ("request/busy lifecycle", test_request_busy_lifecycle);
      ("bounds match params", test_bounds_match_params);
      ("events fire", test_events_fire);
      ("run once only", test_run_once_only);
      ("flood pair", test_flood_pair);
      ("flood line multihop", test_flood_line_multihop);
      ("flood respects topology", test_flood_respects_topology);
      ("flood source validation", test_flood_source_validation);
      ("flood latency grows with diameter", test_flood_latency_grows_with_diameter);
    ]
  @ List.map QCheck_alcotest.to_alcotest qcheck_cases
