(* Tests for the high-level Localcast.Service runners and the
   physical-layer Decay flood (windowed Strategy.relay nodes), held to a
   frozen copy of the flood it replaced. *)

open Core

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

module Dual = Dualgraph.Dual
module Geo = Dualgraph.Geometric
module Sch = Radiosim.Scheduler
module Params = Localcast.Params
module Service = Localcast.Service
module L = Localcast
module Rng = Prng.Rng

let small_params ?(tack_phases = 2) dual = Params.of_dual ~tack_phases ~eps1:0.2 dual

(* --- Service.run --- *)

let test_run_matches_manual_pipeline () =
  (* The one-call runner must reproduce exactly what the hand-assembled
     pipeline (as in test_lb.ml) produces. *)
  let dual = Geo.clique 5 in
  let params = small_params dual in
  let via_service =
    Service.run ~scheduler:Sch.reliable_only ~dual ~params ~senders:[ 0 ]
      ~phases:4 ~seed:7 ()
  in
  let manual =
    let n = Dual.n dual in
    let rng = Rng.of_int 7 in
    let nodes = L.Lb_alg.network params ~rng ~n in
    let envt = L.Lb_env.saturate ~n ~senders:[ 0 ] () in
    let monitor = L.Lb_spec.monitor ~dual ~params ~env:envt () in
    let (_ : int) =
      Radiosim.Engine.run
        ~observer:(L.Lb_spec.observe monitor)
        ~dual ~scheduler:Sch.reliable_only ~nodes ~env:(L.Lb_env.env envt)
        ~rounds:(4 * params.Params.phase_len)
        ()
    in
    L.Lb_spec.finish monitor
  in
  checki "same ack count" manual.L.Lb_spec.ack_count
    via_service.Service.report.L.Lb_spec.ack_count;
  checki "same progress failures" manual.L.Lb_spec.progress_failures
    via_service.Service.report.L.Lb_spec.progress_failures;
  checki "rounds executed" (4 * params.Params.phase_len)
    via_service.Service.rounds_executed

let test_run_deterministic () =
  let dual = Geo.clique 4 in
  let params = small_params dual in
  let go () =
    let o = Service.run ~dual ~params ~senders:[ 0; 2 ] ~phases:4 ~seed:3 () in
    (o.Service.report.L.Lb_spec.ack_count,
     o.Service.report.L.Lb_spec.progress_failures)
  in
  checkb "deterministic" true (go () = go ())

let test_run_observer_sees_rounds () =
  let dual = Geo.pair () in
  let params = small_params dual in
  let seen = ref 0 in
  let (_ : Service.outcome) =
    Service.run
      ~observer:(fun _ -> incr seen)
      ~dual ~params ~senders:[ 0 ] ~phases:2 ~seed:1 ()
  in
  checki "observer called per round" (2 * params.Params.phase_len) !seen

(* Words allocated so far, counted as the benchmark's meter does: an
   n-sized array over 256 words goes straight to the major heap, which
   [Gc.minor_words] alone would miss. *)
let words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* The full LB stack on the lb-field configuration at 300 nodes: once the
   nodes, the monitor and the engine's scratch exist, a round allocates
   only for seeds built, messages sent and outputs emitted — not the
   round record's four n-sized arrays. *)
let test_lb_stack_steady_state () =
  let n = 300 in
  let side = sqrt (float_of_int n) in
  let dual =
    Geo.random_field ~rng:(Rng.of_int 11) ~n ~width:side ~height:side ~r:1.5 ~gray_g':0.5 ()
  in
  let params = Params.of_dual ~eps1:0.1 dual in
  let senders = List.init (n / 100) (fun k -> 100 * k) in
  let w0 = words () in
  let o = Service.run ~dual ~params ~senders ~phases:2 ~seed:12 () in
  let per_node_round =
    (words () -. w0) /. float_of_int (n * o.Service.rounds_executed)
  in
  checki "both phases ran" (2 * params.Params.phase_len) o.Service.rounds_executed;
  checkb
    (Printf.sprintf "%.3f words per node-round, under 0.5" per_node_round)
    true (per_node_round < 0.5)

(* --- Service.one_shot --- *)

let test_one_shot_completion () =
  let dual = Geo.clique 4 in
  let params = small_params ~tack_phases:3 dual in
  let outcome, _, completion =
    Service.one_shot ~scheduler:Sch.reliable_only ~dual ~params ~sender:0 ~seed:5 ()
  in
  checki "one ack" 1 outcome.Service.report.L.Lb_spec.ack_count;
  (match completion with
  | Some round ->
      checkb "completion before the ack window closed" true
        (round < Params.t_ack_rounds params)
  | None -> Alcotest.fail "expected full neighborhood completion")

let test_one_shot_isolated_sender () =
  (* A sender with no reliable neighbors completes vacuously at round 0. *)
  let dual = Geo.singleton () in
  let params = small_params dual in
  let _, _, completion = Service.one_shot ~dual ~params ~sender:0 ~seed:6 () in
  Alcotest.check (Alcotest.option Alcotest.int) "vacuous completion" (Some 0)
    completion

let test_one_shot_sender_never_alive () =
  (* A sender dead for the whole run is never handed its bcast: there is
     nothing to complete, even with no survivor neighbor to judge. *)
  let dual = Geo.pair () in
  let params = small_params dual in
  let faults = Faults.Plan.make ~n:2 ~crashes:[ (0, 0); (1, 0) ] () in
  let outcome, cov, completion =
    Service.one_shot ~faults ~dual ~params ~sender:0 ~seed:6 ()
  in
  Alcotest.check (Alcotest.option Alcotest.int) "no completion" None completion;
  checki "no ack" 0 outcome.Service.report.L.Lb_spec.ack_count;
  checki "only the sender covered" 1 cov.L.Coverage.covered

(* --- Service.first_reception --- *)

let test_first_reception () =
  let dual = Geo.pair () in
  let params = small_params dual in
  let latency =
    Service.first_reception ~scheduler:Sch.reliable_only ~dual ~params ~receiver:0
      ~max_rounds:(4 * params.Params.phase_len)
      ~seed:8 ()
  in
  (match latency with
  | Some round ->
      checkb "reception in a body round" false
        (L.Lb_alg.is_preamble_round params round)
  | None -> Alcotest.fail "pair receiver should hear its neighbor")

let test_first_reception_starves_alone () =
  let dual = Geo.singleton () in
  let params = small_params dual in
  Alcotest.check (Alcotest.option Alcotest.int) "no neighbors, no reception" None
    (Service.first_reception ~dual ~params ~receiver:0 ~max_rounds:200 ~seed:9 ())

(* --- the raw Decay flood: windowed Strategy.relay nodes --- *)

module S = Baseline.Strategy
module Coverage = L.Coverage

(* Every node a Decay relay live for [relay_epochs] epochs from
   acquisition (the source from round 0), node streams split from [rng]
   in node order; the run stops once every node is covered.  Returns the
   coverage tallies and the rounds executed. *)
let decay_flood ?sink ~rng ~dual ~scheduler ~source ~relay_epochs ~max_rounds
    () =
  let n = Dual.n dual in
  let cov = Coverage.create ~n ~source in
  let levels = S.levels_for ~delta':(Dual.delta' dual) in
  let message = L.Messages.payload ~src:source ~uid:0 () in
  let nodes =
    Array.init n (fun v ->
        S.relay (Decay { levels })
          ?initial:(if v = source then Some message else None)
          ~window:(relay_epochs * levels) ~rng:(Rng.split rng) ~node:v ())
  in
  let rounds =
    Radiosim.Engine.run ?sink ~observer:(Coverage.observe cov)
      ~stop:(fun _ -> cov.Coverage.covered = n)
      ~dual ~scheduler ~nodes
      ~env:(Radiosim.Env.null ~name:"flood-decay" ())
      ~rounds:max_rounds ()
  in
  (cov, rounds)

let completion cov =
  if cov.Coverage.covered = Array.length cov.Coverage.first then
    Some (Array.fold_left max 0 cov.Coverage.first)
  else None

let test_flood_decay_pair () =
  let dual = Geo.pair () in
  let cov, _ =
    decay_flood ~rng:(Rng.of_int 10) ~dual ~scheduler:Sch.reliable_only
      ~source:0 ~relay_epochs:4 ~max_rounds:500 ()
  in
  checki "covers both" 2 cov.Coverage.covered;
  checkb "fast" true
    (match completion cov with Some round -> round < 100 | None -> false)

let test_flood_decay_validation () =
  let dual = Geo.pair () in
  Alcotest.check_raises "source"
    (Invalid_argument "Coverage.create: source out of range") (fun () ->
      ignore
        (decay_flood ~rng:(Rng.of_int 1) ~dual ~scheduler:Sch.reliable_only
           ~source:9 ~relay_epochs:1 ~max_rounds:10 ()));
  Alcotest.check_raises "epochs"
    (Invalid_argument "Strategy.relay: window must be >= 1") (fun () ->
      ignore
        (decay_flood ~rng:(Rng.of_int 1) ~dual ~scheduler:Sch.reliable_only
           ~source:0 ~relay_epochs:0 ~max_rounds:10 ()))

let test_flood_decay_no_guarantee () =
  (* With a one-epoch window on a longer line, some trial fails to cover —
     the unreliability the MAC-layer flood removes. *)
  let dual = Geo.line ~n:12 ~spacing:0.9 () in
  let incomplete = ref 0 in
  for seed = 1 to 10 do
    let cov, _ =
      decay_flood ~rng:(Rng.of_int seed) ~dual ~scheduler:Sch.reliable_only
        ~source:0 ~relay_epochs:1 ~max_rounds:5000 ()
    in
    if cov.Coverage.covered < 12 then incr incomplete
  done;
  checkb "raw flooding sometimes stalls" true (!incomplete > 0)

let test_flood_decay_relay_window_bounded () =
  (* After the window closes, nodes stay silent: the run's executed rounds
     stop early only on coverage, so with an unreachable island the run
     uses the full budget but transmissions cease once the last relay's
     window (node 1's, opened the round after its first reception)
     closes. *)
  let g = Dualgraph.Graph.create ~n:3 ~edges:[ (0, 1) ] in
  let dual = Dual.create ~g ~g':g () in
  let sink = Obs.Sink.create () in
  let transmits = ref [] in
  Obs.Sink.on_event sink (function
    | Obs.Event.Transmit { round; _ } -> transmits := round :: !transmits
    | _ -> ());
  let relay_epochs = 2 in
  let cov, rounds =
    decay_flood ~sink ~rng:(Rng.of_int 11) ~dual ~scheduler:Sch.reliable_only
      ~source:0 ~relay_epochs ~max_rounds:300 ()
  in
  checki "island unreachable" 2 cov.Coverage.covered;
  checki "budget exhausted" 300 rounds;
  let window = relay_epochs * S.levels_for ~delta':(Dual.delta' dual) in
  let last_close = cov.Coverage.first.(1) + 1 + window in
  checkb "someone transmitted" true (!transmits <> []);
  checkb "no transmission after the last window closes" true
    (List.for_all (fun round -> round < last_close) !transmits)

(* One-shot runs on random fields of 2 to 13 nodes, half of them under
   churn with fresh-state revival and half over SINR reception:
   Service.one_shot's first-reception tally against each node's first
   Recv of the sender's message in a recorded copy of the same run. *)
let one_shot_tally_is_first_recv seed =
  let rng = Rng.of_int seed in
  let n = 2 + Rng.int rng 12 in
  let dual =
    Geo.random_field ~rng ~n ~width:2.5 ~height:2.5 ~r:1.5 ~gray_g':0.5 ()
  in
  let params = Params.of_dual ~tack_phases:(1 + Rng.int rng 2) ~eps1:0.25 dual in
  let sender = Rng.int rng n in
  let rounds = Params.t_ack_rounds params in
  let faults =
    if Rng.bool rng then
      Some
        (Faults.Plan.churn ~seed ~n ~rounds ~rate:0.01
           ~downtime:(params.Params.phase_len / 2) ())
    else None
  in
  let reception =
    if Rng.bool rng then Radiosim.Reception.sinr () else Radiosim.Reception.dual_graph
  in
  let _, cov, _ = Service.one_shot ?faults ~reception ~dual ~params ~sender ~seed () in
  let trace, observer = Radiosim.Trace.recorder () in
  let envt = L.Lb_env.one_shot ~n ~bcasts:[ (sender, 0) ] in
  let (_ : int) =
    Radiosim.Engine.run ~observer ?faults
      ?revive:(Option.map (fun _ -> Service.reviver ~params ~seed ()) faults)
      ~reception ~dual
      ~scheduler:(Sch.bernoulli ~seed ~p:0.5)
      ~nodes:(L.Lb_alg.network params ~rng:(Rng.of_int seed) ~n)
      ~env:(L.Lb_env.env envt) ~rounds ()
  in
  let first_recv v =
    List.find_map
      (function
        | round, L.Messages.Recv p when p.L.Messages.src = sender -> Some round
        | _ -> None)
      (Radiosim.Trace.outputs_of trace v)
  in
  List.for_all
    (fun v ->
      v = sender || cov.Coverage.first.(v) = Option.value (first_recv v) ~default:max_int)
    (List.init n Fun.id)

(* A network of windowed Decay relays is draw-for-draw the frozen
   physical-layer flood, on the MAC flood's random arenas. *)
let qcheck_cases =
  [
    QCheck.Test.make
      ~name:
        "one_shot first receptions = first Recv per node (random fields, \
         churn, dual and SINR)"
      ~count:60 QCheck.small_int one_shot_tally_is_first_recv;
    QCheck.Test.make
      ~name:"windowed Decay relays equal the frozen Flood_decay.run" ~count:200
      (QCheck.pair Test_mac.flood_arena_arb (QCheck.int_range 1 3))
      (fun (({ Test_mac.dual; scheduler; source; seed; _ } as a), relay_epochs) ->
        (* raw floods take tens of rounds: budgets of 1 to 193 rounds *)
        let max_rounds = Test_mac.flood_budget ~phase_len:64 a in
        let frozen =
          Oracle.Flood_decay.run ~rng:(Rng.of_int seed) ~dual ~scheduler
            ~source ~relay_epochs ~max_rounds ()
        in
        let cov, rounds =
          decay_flood ~rng:(Rng.of_int seed) ~dual ~scheduler ~source
            ~relay_epochs ~max_rounds ()
        in
        cov.Coverage.covered = frozen.Oracle.Flood_decay.covered_count
        && completion cov = frozen.Oracle.Flood_decay.completion_round
        && rounds = frozen.Oracle.Flood_decay.rounds_executed);
  ]

let suite =
  List.map (fun (name, f) -> Alcotest.test_case name `Quick f)
    [
      ("service.run matches manual pipeline", test_run_matches_manual_pipeline);
      ("service.run deterministic", test_run_deterministic);
      ("service.run observer", test_run_observer_sees_rounds);
      ("LB stack steady state", test_lb_stack_steady_state);
      ("service.one_shot completion", test_one_shot_completion);
      ("service.one_shot isolated", test_one_shot_isolated_sender);
      ("service.one_shot sender never alive", test_one_shot_sender_never_alive);
      ("service.first_reception", test_first_reception);
      ("service.first_reception starves alone", test_first_reception_starves_alone);
      ("flood_decay pair", test_flood_decay_pair);
      ("flood_decay validation", test_flood_decay_validation);
      ("flood_decay no guarantee", test_flood_decay_no_guarantee);
      ("flood_decay bounded window", test_flood_decay_relay_window_bounded);
    ]
  @ List.map QCheck_alcotest.to_alcotest qcheck_cases
