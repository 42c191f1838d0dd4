(* Tests for the baseline broadcast strategies and the shared
   progress-latency harness. *)

open Core

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

module Dual = Dualgraph.Dual
module Geo = Dualgraph.Geometric
module Sch = Radiosim.Scheduler
module P = Radiosim.Process
module M = Localcast.Messages
module Decay = Baseline.Decay
module Uniform = Baseline.Uniform
module Round_robin = Baseline.Round_robin
module Harness = Baseline.Harness
module Rng = Prng.Rng

let payload src = M.payload ~src ~uid:0 ()

let count_transmissions node rounds =
  let count = ref 0 in
  for round = 0 to rounds - 1 do
    match node.P.decide ~round [] with
    | P.Transmit _ -> incr count
    | P.Listen -> ()
  done;
  !count

let test_decay_levels_for () =
  checki "delta'=2" 2 (Decay.levels_for ~delta':2);
  checki "delta'=8" 4 (Decay.levels_for ~delta':8);
  checki "delta'=9" 5 (Decay.levels_for ~delta':9);
  checki "delta'=1" 2 (Decay.levels_for ~delta':1)

let test_decay_validation () =
  Alcotest.check_raises "levels >= 1"
    (Invalid_argument "Decay.node: levels must be >= 1") (fun () ->
      ignore (Decay.node ~levels:0 ~message:(payload 0) ~rng:(Rng.of_int 1)))

let test_decay_transmission_rate () =
  (* With a single level the schedule transmits w.p. 1/2 every round. *)
  let node = Decay.node ~levels:1 ~message:(payload 0) ~rng:(Rng.of_int 2) in
  let c = count_transmissions node 10_000 in
  checkb "rate near 1/2" true (Float.abs ((float_of_int c /. 10_000.0) -. 0.5) < 0.02)

let test_decay_level_structure () =
  (* With 3 levels, per-epoch expected transmissions = 1/2 + 1/4 + 1/8. *)
  let node = Decay.node ~levels:3 ~message:(payload 0) ~rng:(Rng.of_int 3) in
  let epochs = 6000 in
  let c = count_transmissions node (3 * epochs) in
  let per_epoch = float_of_int c /. float_of_int epochs in
  checkb "per-epoch rate near 7/8" true (Float.abs (per_epoch -. 0.875) < 0.05)

let test_decay_hot_predicate () =
  checkb "level 0 hot" true (Decay.hot_predicate ~levels:4 ~hot_levels:2 0);
  checkb "level 1 hot" true (Decay.hot_predicate ~levels:4 ~hot_levels:2 1);
  checkb "level 2 cold" false (Decay.hot_predicate ~levels:4 ~hot_levels:2 2);
  checkb "wraps around" true (Decay.hot_predicate ~levels:4 ~hot_levels:2 4)

let test_uniform_edges () =
  let one = Uniform.node ~p:1.0 ~message:(payload 0) ~rng:(Rng.of_int 4) in
  checki "p=1 always" 100 (count_transmissions one 100);
  let zero = Uniform.node ~p:0.0 ~message:(payload 0) ~rng:(Rng.of_int 4) in
  checki "p=0 never" 0 (count_transmissions zero 100);
  Alcotest.check_raises "validation"
    (Invalid_argument "Uniform.node: p must be in [0, 1]") (fun () ->
      ignore (Uniform.node ~p:1.5 ~message:(payload 0) ~rng:(Rng.of_int 4)))

let test_uniform_rate () =
  let node = Uniform.node ~p:0.25 ~message:(payload 0) ~rng:(Rng.of_int 5) in
  let c = count_transmissions node 10_000 in
  checkb "rate near 1/4" true (Float.abs ((float_of_int c /. 10_000.0) -. 0.25) < 0.02)

let test_round_robin_pattern () =
  let node = Round_robin.node ~n:4 ~id:2 ~message:(payload 2) in
  for round = 0 to 19 do
    let expected = round mod 4 = 2 in
    let actual =
      match node.P.decide ~round [] with P.Transmit _ -> true | P.Listen -> false
    in
    checkb "slot discipline" expected actual
  done;
  Alcotest.check_raises "validation" (Invalid_argument "Round_robin.node: bad id/n")
    (fun () -> ignore (Round_robin.node ~n:3 ~id:3 ~message:(payload 0)))

let test_harness_immediate () =
  let dual = Geo.pair () in
  let nodes =
    [| Uniform.node ~p:1.0 ~message:(payload 0) ~rng:(Rng.of_int 6); Harness.receiver () |]
  in
  Alcotest.check (Alcotest.option Alcotest.int) "heard at round 0" (Some 0)
    (Harness.first_reception ~dual ~scheduler:Sch.reliable_only ~nodes ~receiver:1
       ~max_rounds:10)

let test_harness_starvation () =
  let dual = Geo.pair () in
  let nodes =
    [| Uniform.node ~p:0.0 ~message:(payload 0) ~rng:(Rng.of_int 6); Harness.receiver () |]
  in
  Alcotest.check (Alcotest.option Alcotest.int) "never hears" None
    (Harness.first_reception ~dual ~scheduler:Sch.reliable_only ~nodes ~receiver:1
       ~max_rounds:25)

let test_decay_beats_starvation_without_adversary () =
  (* Decay makes progress quickly on the grey-cluster fixture when the
     scheduler keeps unreliable links off. *)
  let k = 8 in
  let dual = Geo.gray_cluster ~k ~r:1.5 () in
  let rng = Rng.of_int 7 in
  let levels = Decay.levels_for ~delta':(Dual.delta' dual) in
  let nodes =
    Array.init (k + 2) (fun v ->
        if v = 0 then Harness.receiver ()
        else Decay.node ~levels ~message:(payload v) ~rng:(Rng.split rng))
  in
  let latency =
    Harness.first_reception ~dual ~scheduler:Sch.reliable_only ~nodes ~receiver:0
      ~max_rounds:500
  in
  checkb "fast progress without adversary" true
    (match latency with Some l -> l < 100 | None -> false)

let test_thwart_starves_decay () =
  (* The paper's Discussion attack: under the thwarting scheduler, Decay's
     receiver starves far longer than under the benign scheduler. *)
  let k = 8 in
  let dual = Geo.gray_cluster ~k ~r:1.5 () in
  let levels = Decay.levels_for ~delta':(Dual.delta' dual) in
  let run scheduler seed =
    let rng = Rng.of_int seed in
    let nodes =
      Array.init (k + 2) (fun v ->
          if v = 0 then Harness.receiver ()
          else Decay.node ~levels ~message:(payload v) ~rng:(Rng.split rng))
    in
    Harness.first_reception ~dual ~scheduler ~nodes ~receiver:0 ~max_rounds:4000
  in
  let thwart =
    Sch.thwart ~hot:(Decay.hot_predicate ~levels ~hot_levels:(levels - 1))
  in
  let benign_total = ref 0 and thwart_total = ref 0 in
  let trials = 10 in
  for seed = 1 to trials do
    (match run Sch.reliable_only seed with
    | Some l -> benign_total := !benign_total + l
    | None -> benign_total := !benign_total + 4000);
    match run thwart seed with
    | Some l -> thwart_total := !thwart_total + l
    | None -> thwart_total := !thwart_total + 4000
  done;
  checkb "adversary at least triples decay's latency" true
    (!thwart_total > 3 * !benign_total)

(* ------------------------------------------------------------------ *)
(* The strategy family behind the refactored baselines (E25).          *)

module S = Baseline.Strategy
module T = Baseline.Tournament

(* Pre-refactor [Decay.node], [Uniform.node] and [Round_robin.node],
   copied verbatim: the refactored modules delegate to [Strategy] and
   must stay round-for-round identical to these frozen oracles. *)
module Frozen = struct
  let decay_node ~levels ~message ~rng =
    if levels < 1 then invalid_arg "Decay.node: levels must be >= 1";
    let decide ~round _inputs =
      let level = round mod levels in
      let p = 1.0 /. float_of_int (1 lsl (level + 1)) in
      if Prng.Rng.bernoulli rng p then
        Radiosim.Process.Transmit (Localcast.Messages.Data message)
      else Radiosim.Process.Listen
    in
    { Radiosim.Process.decide; absorb = (fun ~round:_ _ -> []) }

  let uniform_node ~p ~message ~rng =
    if p < 0.0 || p > 1.0 then invalid_arg "Uniform.node: p must be in [0, 1]";
    let decide ~round:_ _inputs =
      if Prng.Rng.bernoulli rng p then
        Radiosim.Process.Transmit (Localcast.Messages.Data message)
      else Radiosim.Process.Listen
    in
    { Radiosim.Process.decide; absorb = (fun ~round:_ _ -> []) }

  let round_robin_node ~n ~id ~message =
    if n < 1 || id < 0 || id >= n then invalid_arg "Round_robin.node: bad id/n";
    let decide ~round _inputs =
      if round mod n = id then
        Radiosim.Process.Transmit (Localcast.Messages.Data message)
      else Radiosim.Process.Listen
    in
    { Radiosim.Process.decide; absorb = (fun ~round:_ _ -> []) }
end

(* Drive [node] for [rounds] rounds like the engine does — decide, then
   absorb (here: nothing received) — and record the transmit schedule. *)
let schedule node rounds =
  List.init rounds (fun round ->
      let t =
        match node.P.decide ~round [] with
        | P.Transmit _ -> true
        | P.Listen -> false
      in
      ignore (node.P.absorb ~round None);
      t)

let test_strategy_spec_roundtrip () =
  let specs =
    [
      "fixed:0.125";
      "decay:5";
      "decay-restart:3";
      "sawtooth:4";
      "backoff:6";
      "slotted:12";
    ]
  in
  List.iter
    (fun s ->
      match S.parse s with
      | Ok t -> Alcotest.check Alcotest.string "roundtrip" s (S.to_spec t)
      | Error e -> Alcotest.failf "parse %S: %s" s e)
    specs;
  (match S.parse "DECAY:5" with
  | Ok t -> Alcotest.check Alcotest.string "case-insensitive" "decay:5" (S.to_spec t)
  | Error e -> Alcotest.fail e);
  Alcotest.check Alcotest.string "name" "decay-restart"
    (S.name (S.Decay_restart { levels = 3 }));
  Alcotest.check Alcotest.string "pp" "backoff:2"
    (Format.asprintf "%a" S.pp (S.Backoff { max_exp = 2 }))

let test_strategy_validate () =
  let rejected s =
    match S.parse s with
    | Error _ -> ()
    | Ok t -> Alcotest.failf "parse %S unexpectedly accepted %s" s (S.to_spec t)
  in
  List.iter rejected
    [
      "fixed:1.5";
      "fixed:-0.1";
      "fixed:nan";
      "fixed:";
      "decay:0";
      "decay:63";
      "decay-restart:0";
      "sawtooth:-1";
      "backoff:-1";
      "backoff:63";
      "slotted:0";
      "bogus:3";
      "decay";
      "decay:2:3";
    ];
  Alcotest.check_raises "init validates"
    (Invalid_argument "Strategy.init: decay: levels must be in [1, 62]")
    (fun () ->
      ignore (S.init (S.Decay { levels = 0 }) ~rng:(Rng.of_int 1) ~node:0));
  Alcotest.check_raises "init node >= 0"
    (Invalid_argument "Strategy.init: node must be >= 0") (fun () ->
      ignore (S.init (S.Fixed { p = 0.5 }) ~rng:(Rng.of_int 1) ~node:(-1)))

let test_strategy_decide_monotone () =
  let st = S.init (S.Fixed { p = 0.5 }) ~rng:(Rng.of_int 2) ~node:0 in
  ignore (S.decide st ~round:0);
  ignore (S.decide st ~round:3);
  Alcotest.check_raises "repeat round"
    (Invalid_argument "Strategy.decide: rounds must be strictly increasing")
    (fun () -> ignore (S.decide st ~round:3));
  Alcotest.check_raises "earlier round"
    (Invalid_argument "Strategy.decide: rounds must be strictly increasing")
    (fun () -> ignore (S.decide st ~round:1));
  let fresh = S.init (S.Fixed { p = 0.5 }) ~rng:(Rng.of_int 2) ~node:0 in
  Alcotest.check_raises "negative round"
    (Invalid_argument "Strategy.decide: round must be >= 0") (fun () ->
      ignore (S.decide fresh ~round:(-1)))

let test_backoff_windows () =
  (* max_exp = 0 pins the window exponent at 0: transmit w.p. 1 forever. *)
  let st = S.init (S.Backoff { max_exp = 0 }) ~rng:(Rng.of_int 3) ~node:0 in
  for round = 0 to 49 do
    checkb "k=0 always transmits" true (S.decide st ~round)
  done;
  (* max_exp = 1: round 0 is the certain k=0 window, then k parks at 1
     (p = 1/2 per round). *)
  let st = S.init (S.Backoff { max_exp = 1 }) ~rng:(Rng.of_int 4) ~node:0 in
  checkb "first round certain" true (S.decide st ~round:0);
  let c = ref 0 in
  let rounds = 10_000 in
  for round = 1 to rounds do
    if S.decide st ~round then incr c
  done;
  checkb "parked rate near 1/2" true
    (Float.abs ((float_of_int !c /. float_of_int rounds) -. 0.5) < 0.02);
  (* Decoding a message resets the window: with feedback every round the
     node never leaves the certain k=0 window. *)
  let st = S.init (S.Backoff { max_exp = 8 }) ~rng:(Rng.of_int 5) ~node:0 in
  for round = 0 to 49 do
    checkb "reset keeps k=0" true (S.decide st ~round);
    S.feedback st ~round ~heard:true
  done

let test_decay_restart_feedback () =
  (* Without feedback the ladder descends and parks at levels-1. *)
  let st = S.init (S.Decay_restart { levels = 4 }) ~rng:(Rng.of_int 6) ~node:0 in
  for round = 0 to 9 do
    ignore (S.decide st ~round);
    S.feedback st ~round ~heard:false
  done;
  let c = ref 0 in
  let rounds = 16_000 in
  for round = 10 to 9 + rounds do
    if S.decide st ~round then incr c
  done;
  checkb "parked rate near 1/16" true
    (Float.abs ((float_of_int !c /. float_of_int rounds) -. 0.0625) < 0.01);
  (* With a decode every round the ladder restarts from the top. *)
  let st = S.init (S.Decay_restart { levels = 4 }) ~rng:(Rng.of_int 7) ~node:0 in
  let c = ref 0 in
  for round = 0 to rounds - 1 do
    if S.decide st ~round then incr c;
    S.feedback st ~round ~heard:true
  done;
  checkb "restarted rate near 1/2" true
    (Float.abs ((float_of_int !c /. float_of_int rounds) -. 0.5) < 0.02)

let test_sawtooth_sweep () =
  (* levels = 2 sweeps p = 1/4 then 1/2 each epoch: 3/4 per epoch. *)
  let st = S.init (S.Sawtooth { levels = 2 }) ~rng:(Rng.of_int 8) ~node:0 in
  let epochs = 8000 in
  let c = ref 0 in
  for round = 0 to (2 * epochs) - 1 do
    if S.decide st ~round then incr c
  done;
  let per_epoch = float_of_int !c /. float_of_int epochs in
  checkb "per-epoch rate near 3/4" true (Float.abs (per_epoch -. 0.75) < 0.05)

let test_strategy_zoo () =
  let zoo = S.zoo ~delta':8 ~n:12 in
  Alcotest.check (Alcotest.list Alcotest.string) "zoo arms"
    [ "fixed:0.125"; "decay:4"; "decay-restart:4"; "sawtooth:4"; "backoff:4";
      "slotted:12" ]
    (List.map S.to_spec zoo);
  List.iter
    (fun t ->
      match S.validate t with
      | Ok () -> ()
      | Error e -> Alcotest.failf "zoo arm %s invalid: %s" (S.to_spec t) e)
    (S.zoo ~delta':1 ~n:1)

let test_node_rng_streams () =
  let draws rng = List.init 5 (fun _ -> Rng.bits64 rng) in
  let a = draws (S.node_rng ~seed:42 ~node:3 ()) in
  let b = draws (S.node_rng ~seed:42 ~node:3 ()) in
  checkb "same key, same stream" true (a = b);
  checkb "different node differs" true
    (a <> draws (S.node_rng ~seed:42 ~node:4 ()));
  checkb "different seed differs" true
    (a <> draws (S.node_rng ~seed:43 ~node:3 ()));
  checkb "revival round differs" true
    (a <> draws (S.node_rng ~round:1 ~seed:42 ~node:3 ()))

let test_ladder_top_level_draws () =
  (* Sawtooth starts at its top level, 62 here, whose probability is
     2^-62: it must take a draw like every other level, not read as a
     probability below 0 and skip it. *)
  let rng = Rng.of_int 5 in
  let shadow = Rng.copy rng in
  let st = S.init (S.Sawtooth { levels = 62 }) ~rng ~node:0 in
  ignore (S.decide st ~round:0);
  ignore (Rng.bits64 shadow);
  Alcotest.check Alcotest.int64 "sawtooth:62 at round 0 consumes exactly one draw"
    (Rng.bits64 shadow) (Rng.bits64 rng)

let test_relay_semantics () =
  let slotted = S.Slotted { slots = 1 } in
  (* An initial holder transmits on its schedule from engine round 0 and
     falls silent once the global budget window closes. *)
  let holder =
    S.relay slotted ~initial:(payload 0) ~budget:3
      ~rng:(S.node_rng ~seed:1 ~node:0 ())
      ~node:0 ()
  in
  Alcotest.check (Alcotest.list Alcotest.bool) "holder budget window"
    [ true; true; true; false; false ]
    (schedule holder 5);
  (* An acquirer stays silent, ignores seed traffic, and starts its local
     schedule the round after first decoding a data payload. *)
  let relay =
    S.relay slotted ~budget:4 ~rng:(S.node_rng ~seed:1 ~node:1 ()) ~node:1 ()
  in
  let transmit round =
    match relay.P.decide ~round [] with
    | P.Transmit _ -> true
    | P.Listen -> false
  in
  let seed_msg =
    M.Seed_msg { M.owner = 0; seed = Prng.Bitstring.of_bools [ true ] }
  in
  checkb "silent before acquiring" false (transmit 0);
  ignore (relay.P.absorb ~round:0 (Some seed_msg));
  checkb "seed traffic does not acquire" false (transmit 1);
  ignore (relay.P.absorb ~round:1 (Some (M.Data (payload 0))));
  checkb "relays on local round 0" true (transmit 2);
  ignore (relay.P.absorb ~round:2 None);
  checkb "keeps relaying inside the budget" true (transmit 3);
  ignore (relay.P.absorb ~round:3 None);
  checkb "global budget silences the relay" false (transmit 4);
  Alcotest.check_raises "budget >= 0"
    (Invalid_argument "Strategy.relay: budget must be >= 0") (fun () ->
      ignore
        (S.relay slotted ~budget:(-1) ~rng:(Rng.of_int 1) ~node:0 ()))

let test_relay_window_budget_compose () =
  (* The per-relay window counts local rounds from acquisition, the
     budget engine rounds from 0; whichever closes first silences the
     relay. *)
  let slotted = S.Slotted { slots = 1 } in
  let bools = Alcotest.(list bool) in
  let holder ?budget ?window () =
    S.relay slotted ~initial:(payload 0) ?budget ?window
      ~rng:(S.node_rng ~seed:1 ~node:0 ())
      ~node:0 ()
  in
  Alcotest.check bools "holder: window closes first"
    [ true; true; false; false; false; false ]
    (schedule (holder ~window:2 ~budget:4 ()) 6);
  Alcotest.check bools "holder: budget closes first"
    [ true; true; true; false; false; false ]
    (schedule (holder ~window:5 ~budget:3 ()) 6);
  Alcotest.check bools "holder: window alone"
    [ true; true; true; true; false; false ]
    (schedule (holder ~window:4 ()) 6);
  (* An acquirer decoding at round 1 opens its window at round 2. *)
  let acquirer ?budget ~window () =
    let relay =
      S.relay slotted ?budget ~window
        ~rng:(S.node_rng ~seed:1 ~node:1 ())
        ~node:1 ()
    in
    List.init 8 (fun round ->
        let t =
          match relay.P.decide ~round [] with
          | P.Transmit _ -> true
          | P.Listen -> false
        in
        ignore
          (relay.P.absorb ~round
             (if round = 1 then Some (M.Data (payload 0)) else None));
        t)
  in
  Alcotest.check bools "acquirer: window closes first"
    [ false; false; true; true; true; false; false; false ]
    (acquirer ~window:3 ~budget:7 ());
  Alcotest.check bools "acquirer: budget closes first"
    [ false; false; true; true; false; false; false; false ]
    (acquirer ~window:3 ~budget:4 ());
  Alcotest.check_raises "window >= 1"
    (Invalid_argument "Strategy.relay: window must be >= 1") (fun () ->
      ignore (S.relay slotted ~window:0 ~rng:(Rng.of_int 1) ~node:0 ()))

let test_sender_reuse_restarts_schedule () =
  (* The micro-benches reuse one baseline node across engine runs; a
     round going backwards restarts the schedule on the same stream
     instead of raising. *)
  let node = Uniform.node ~p:1.0 ~message:(payload 0) ~rng:(Rng.of_int 9) in
  checki "first run" 10 (count_transmissions node 10);
  checki "reused run restarts at round 0" 10 (count_transmissions node 10);
  let node = Round_robin.node ~n:3 ~id:1 ~message:(payload 1) in
  ignore (count_transmissions node 5);
  checkb "slot discipline intact after reuse" true
    (match node.P.decide ~round:1 [] with
    | P.Transmit _ -> true
    | P.Listen -> false)

let test_tournament_cell () =
  let dual = Geo.clique 6 in
  let arena = T.arena ~dual () in
  let arms = T.arms ~dual in
  checki "zoo plus lbalg" 7 (List.length arms);
  Alcotest.check (Alcotest.list Alcotest.string) "arm labels"
    [ "fixed"; "decay"; "decay-restart"; "sawtooth"; "backoff"; "slotted";
      "lbalg" ]
    (List.map T.arm_label arms);
  let adaptive = { arena with T.adversary = T.Adaptive_jam } in
  List.iter
    (fun arm ->
      checkb "oblivious supports all" true (T.supports arena arm);
      checkb "adaptive excludes only lbalg"
        (T.arm_label arm <> "lbalg")
        (T.supports adaptive arm))
    arms;
  checkb "unsupported trial is None" true
    (T.trial adaptive T.Lbalg ~seed:1 = None);
  let arm = T.Strategy (S.Decay { levels = 3 }) in
  match (T.trial arena arm ~seed:3, T.trial arena arm ~seed:3) with
  | Some a, Some b ->
      checkb "trial is a pure function of (arena, arm, seed)" true (a = b);
      checkb "coverage in [0,1]" true (a.T.coverage >= 0.0 && a.T.coverage <= 1.0);
      checkb "latency within horizon" true
        (a.T.latency >= 0.0 && a.T.latency <= float_of_int arena.T.horizon);
      checkb "cost positive" true (a.T.cost > 0.0)
  | _ -> Alcotest.fail "trial returned None on a fault-free clique"

(* QCheck generators for the property-test hardening pass. *)
let strategy_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun i -> S.Fixed { p = float_of_int i /. 16.0 }) (0 -- 16);
        map (fun l -> S.Decay { levels = l }) (1 -- 8);
        map (fun l -> S.Decay_restart { levels = l }) (1 -- 8);
        map (fun l -> S.Sawtooth { levels = l }) (1 -- 8);
        map (fun k -> S.Backoff { max_exp = k }) (0 -- 8);
        map (fun s -> S.Slotted { slots = s }) (1 -- 8);
      ])

let strategy_arb = QCheck.make strategy_gen ~print:S.to_spec

(* The transmit schedule of [spec] at [node] under [seed], replaying the
   given feedback history ([heard] per round, cycled). *)
let decisions spec ~seed ~node ~feedback rounds =
  let st = S.init spec ~rng:(S.node_rng ~seed ~node ()) ~node in
  let k = Array.length feedback in
  List.init rounds (fun round ->
      let d = S.decide st ~round in
      S.feedback st ~round ~heard:(k > 0 && feedback.(round mod k));
      d)

let qcheck_cases =
  let open QCheck in
  [
    Test.make ~name:"refactored baselines match their frozen oracles" ~count:40
      (pair small_int (pair (int_range 1 8) (int_range 0 16)))
      (fun (seed, (levels, p16)) ->
        let p = float_of_int p16 /. 16.0 in
        let rounds = 200 in
        let msg = payload 0 in
        schedule (Frozen.decay_node ~levels ~message:msg ~rng:(Rng.of_int seed))
          rounds
        = schedule (Decay.node ~levels ~message:msg ~rng:(Rng.of_int seed))
            rounds
        && schedule (Frozen.uniform_node ~p ~message:msg ~rng:(Rng.of_int seed))
             rounds
           = schedule (Uniform.node ~p ~message:msg ~rng:(Rng.of_int seed))
               rounds
        && schedule
             (Frozen.round_robin_node ~n:levels ~id:(p16 mod levels)
                ~message:msg)
             rounds
           = schedule
               (Round_robin.node ~n:levels ~id:(p16 mod levels) ~message:msg)
               rounds);
    Test.make
      ~name:"decisions are a pure function of (strategy, seed, node, feedback)"
      ~count:60
      (pair strategy_arb (pair small_int (pair (int_range 0 20) (list bool))))
      (fun (spec, (seed, (node, fb))) ->
        let feedback = Array.of_list fb in
        decisions spec ~seed ~node ~feedback 120
        = decisions spec ~seed ~node ~feedback 120);
    Test.make
      ~name:"node streams are independent of materialization order" ~count:40
      (pair strategy_arb small_int)
      (fun (spec, seed) ->
        let rounds = 80 in
        let nodes = [ 0; 1; 2; 3 ] in
        (* Node-major: each node's full schedule in isolation. *)
        let isolated =
          List.map
            (fun node -> decisions spec ~seed ~node ~feedback:[||] rounds)
            nodes
        in
        (* Round-major: all nodes advanced in lockstep, reverse order. *)
        let states =
          List.map
            (fun node -> S.init spec ~rng:(S.node_rng ~seed ~node ()) ~node)
            nodes
        in
        let interleaved =
          List.init rounds (fun round ->
              List.rev_map (fun st -> S.decide st ~round) (List.rev states))
        in
        List.for_all2
          (fun node_idx isolated_schedule ->
            isolated_schedule
            = List.map (fun per_round -> List.nth per_round node_idx)
                interleaved)
          [ 0; 1; 2; 3 ] isolated);
    Test.make
      ~name:"relay with initial+budget is draw-for-draw the budgeted sender"
      ~count:40
      (pair small_int (pair (int_range 1 6) (int_range 1 60)))
      (fun (seed, (levels, budget)) ->
        let msg = payload 0 in
        let rng () = S.node_rng ~seed ~node:0 () in
        let oracle =
          schedule (Frozen.decay_node ~levels ~message:msg ~rng:(rng ())) budget
        in
        let relay =
          S.relay (S.Decay { levels }) ~initial:msg ~budget ~rng:(rng ())
            ~node:0 ()
        in
        schedule relay (budget + 20)
        = oracle @ List.init 20 (fun _ -> false));
  ]

let suite =
  List.map (fun (name, f) -> Alcotest.test_case name `Quick f)
    [
      ("decay levels_for", test_decay_levels_for);
      ("decay validation", test_decay_validation);
      ("decay transmission rate", test_decay_transmission_rate);
      ("decay level structure", test_decay_level_structure);
      ("decay hot predicate", test_decay_hot_predicate);
      ("uniform edges", test_uniform_edges);
      ("uniform rate", test_uniform_rate);
      ("round robin pattern", test_round_robin_pattern);
      ("harness immediate", test_harness_immediate);
      ("harness starvation", test_harness_starvation);
      ("decay fast without adversary", test_decay_beats_starvation_without_adversary);
      ("thwart starves decay", test_thwart_starves_decay);
      ("strategy spec roundtrip", test_strategy_spec_roundtrip);
      ("strategy validation", test_strategy_validate);
      ("strategy decide monotone", test_strategy_decide_monotone);
      ("backoff windows", test_backoff_windows);
      ("decay-restart feedback", test_decay_restart_feedback);
      ("sawtooth sweep", test_sawtooth_sweep);
      ("strategy zoo", test_strategy_zoo);
      ("node_rng streams", test_node_rng_streams);
      ("ladder level 62 draws", test_ladder_top_level_draws);
      ("relay semantics", test_relay_semantics);
      ("relay window and budget compose", test_relay_window_budget_compose);
      ("sender reuse restarts schedule", test_sender_reuse_restarts_schedule);
      ("tournament cell", test_tournament_cell);
    ]
  @ List.map QCheck_alcotest.to_alcotest qcheck_cases
