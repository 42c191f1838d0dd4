(* Golden-trace conformance suite.

   Each config below deterministically drives the engine — a fixed
   topology, a fixed oblivious scheduler, fixed Bernoulli-transmit
   processes and (usually) a fault plan — with an event sink attached,
   and compares the resulting JSONL event stream byte-for-byte against a
   committed trace in test/golden/.  Any change to engine scheduling,
   collision resolution, fault transitions or the event codecs shows up
   as a diff here before it can silently change simulation results.

   The corpus spans the scheduler zoo (bernoulli, bernoulli-sparse,
   flicker, edge-phase-flicker, thwart, all-edges, reliable-only) crossed
   with fault-plan shapes (none, crashes, crash+restart, jam windows,
   seed-derived churn with and without revival), two SINR-reception
   runs (one clean, one with jam windows and churn) pinning the physical
   interference backend's scheduling-free reception, its event mapping
   and its jam-as-noise fault semantics, and two tournament cells
   (a back-off relay network under jam windows, a sawtooth relay
   network under churn) pinning the E25 strategy/relay semantics —
   acquisition, local-round schedules, the global budget window and the
   counter-mode per-node streams of Baseline.Strategy.

   One config runs the LB service itself (Localcast.Service.run under a
   crash+restart plan) and keeps only the protocol and fault events
   (phase_start, bcast, recv, ack, progress, seed_commit, crash,
   restart): it pins the record-to-event translation and the spec
   monitor's qualifying-reception rule without committing the full
   structural stream.

   Regenerating the corpus (after an intentional semantic change):

     dune build && \
     GOLDEN_OUT=$PWD/test/golden \
       ./_build/default/test/test_main.exe test golden-traces

   then review the diff and commit.  With GOLDEN_OUT set the suite
   writes traces instead of checking them. *)

open Core
module Dual = Dualgraph.Dual
module Geo = Dualgraph.Geometric
module Sch = Radiosim.Scheduler
module Engine = Radiosim.Engine
module P = Radiosim.Process
module M = Localcast.Messages
module Rng = Prng.Rng
module Plan = Faults.Plan

type processes =
  | Bernoulli of float
      (** every node transmits i.i.d. with this per-round probability *)
  | Relay of { spec : string; budget : int }
      (** one E25 tournament cell: node 0 initially holds the payload,
          every node runs [Strategy.relay] under the [Strategy.parse]d
          spec with the given global budget window *)
  | Lb_service of { senders : int list; phases : int }
      (** [Localcast.Service.run] with these saturated senders for
          [phases] phases ([rounds] is then phases × phase_len); only the
          protocol and fault events are kept *)

type config = {
  name : string;
  seed : int;
  n : int;
  rounds : int;
  processes : processes;
  scheduler : seed:int -> Sch.t;
  faults : string option;  (** Plan.of_spec grammar; [None] = no plan *)
  reception : string;  (** Reception.of_spec grammar *)
}

let configs =
  [
    {
      name = "bernoulli_no_faults";
      seed = 11;
      n = 10;
      rounds = 30;
      processes = Bernoulli 0.4;
      scheduler = (fun ~seed -> Sch.bernoulli ~seed ~p:0.5);
      faults = None;
      reception = "dual";
    };
    {
      name = "bernoulli_crash";
      seed = 12;
      n = 10;
      rounds = 28;
      processes = Bernoulli 0.35;
      scheduler = (fun ~seed -> Sch.bernoulli ~seed ~p:0.4);
      faults = Some "crash:2@5;crash:7@11";
      reception = "dual";
    };
    {
      name = "sparse_crash_restart";
      seed = 13;
      n = 12;
      rounds = 32;
      processes = Bernoulli 0.3;
      scheduler = (fun ~seed -> Sch.bernoulli_sparse ~seed ~p:0.3);
      faults = Some "crash:4@6;restart:4@14;crash:9@3;restart:9@20";
      reception = "dual";
    };
    {
      name = "flicker_jam";
      seed = 14;
      n = 9;
      rounds = 24;
      processes = Bernoulli 0.5;
      scheduler = (fun ~seed:_ -> Sch.flicker ~period:6 ~duty:3);
      faults = Some "jam:1@0-10;jam:5@4-12;jam:5@16-20";
      reception = "dual";
    };
    {
      name = "thwart_crash_jam";
      seed = 15;
      n = 10;
      rounds = 30;
      processes = Bernoulli 0.4;
      scheduler = (fun ~seed:_ -> Sch.thwart ~hot:(fun r -> r mod 5 < 2));
      faults = Some "crash:3@7;jam:0@5-15";
      reception = "dual";
    };
    {
      name = "edge_phase_churn_revive";
      seed = 16;
      n = 12;
      rounds = 40;
      processes = Bernoulli 0.35;
      scheduler = (fun ~seed:_ -> Sch.edge_phase_flicker ~period:5);
      faults = Some "churn:0.02,8";
      reception = "dual";
    };
    {
      name = "all_edges_churn_permanent";
      seed = 17;
      n = 8;
      rounds = 36;
      processes = Bernoulli 0.25;
      scheduler = (fun ~seed:_ -> Sch.all_edges);
      faults = Some "churn:0.03";
      reception = "dual";
    };
    {
      name = "reliable_only_mixed";
      seed = 18;
      n = 11;
      rounds = 32;
      processes = Bernoulli 0.45;
      scheduler = (fun ~seed:_ -> Sch.reliable_only);
      faults = Some "crash:2@4;restart:2@9;jam:6@2-8;churn:0.01,10";
      reception = "dual";
    };
    {
      name = "sinr_no_faults";
      seed = 19;
      n = 12;
      rounds = 30;
      processes = Bernoulli 0.4;
      scheduler = (fun ~seed -> Sch.bernoulli ~seed ~p:0.5);
      faults = None;
      reception = "sinr:alpha=3,beta=1.2,noise=0.02";
    };
    {
      name = "sinr_jam_churn";
      seed = 20;
      n = 11;
      rounds = 32;
      processes = Bernoulli 0.35;
      scheduler = (fun ~seed:_ -> Sch.reliable_only);
      faults = Some "jam:3@2-12;jam:8@6-20;churn:0.02,8";
      reception = "sinr:alpha=3.5,beta=1.5,noise=0.01,jam=500,near=3";
    };
    {
      name = "backoff_relay_jam";
      seed = 21;
      n = 10;
      rounds = 30;
      processes = Relay { spec = "backoff:4"; budget = 26 };
      scheduler = (fun ~seed -> Sch.bernoulli ~seed ~p:0.5);
      faults = Some "jam:2@3-12;jam:6@8-18";
      reception = "dual";
    };
    {
      name = "sawtooth_relay_churn";
      seed = 22;
      n = 12;
      rounds = 36;
      processes = Relay { spec = "sawtooth:4"; budget = 30 };
      scheduler = (fun ~seed:_ -> Sch.edge_phase_flicker ~period:5);
      faults = Some "churn:0.02,8";
      reception = "dual";
    };
    {
      name = "lb_service_crash_restart";
      seed = 23;
      n = 10;
      rounds = 0;
      processes = Lb_service { senders = [ 0; 1; 4 ]; phases = 3 };
      scheduler = (fun ~seed -> Sch.bernoulli ~seed ~p:0.5);
      faults = Some "crash:1@40;restart:1@300;crash:4@100";
      reception = "dual";
    };
  ]

(* Most golden processes are deliberately protocol-free: i.i.d.
   Bernoulli transmitters, so the corpus pins engine/fault/scheduler
   semantics without churning whenever LBAlg's internals evolve.  The
   two Relay configs additionally pin the strategy/relay layer that the
   E25 tournament is built on, and the Lb_service config the protocol
   events of the LB stack. *)
let process ~p ~src ~rng =
  {
    P.decide =
      (fun ~round:_ _ ->
        if Rng.bernoulli rng p then
          P.Transmit (M.Data (M.payload ~src ~uid:0 ()))
        else P.Listen);
    absorb = (fun ~round:_ _ -> []);
  }

(* Fresh-state revival from the same (seed, node, round + 1) key as
   Service.reviver, so restarted golden nodes are reproducible too. *)
let revive_of ~seed ~p ~node ~round =
  process ~p ~src:node ~rng:(Rng.node_stream ~seed ~node ~round:(round + 1))

let strategy_of ~name spec =
  match Baseline.Strategy.parse spec with
  | Ok t -> t
  | Error e -> Alcotest.failf "config %s: bad strategy spec: %s" name e

(* The events an Lb_service trace keeps: protocol and fault events, not
   the per-round structural stream. *)
let protocol_or_fault = function
  | Obs.Event.Phase_start _ | Bcast _ | Recv _ | Ack _ | Progress _
  | Seed_commit _ | Crash _ | Restart _ ->
      true
  | Round_start _ | Round_end _ | Transmit _ | Deliver _ | Collision _
  | Mark _ ->
      false

let run_config c =
  let rng = Rng.of_int c.seed in
  let dual =
    Geo.random_field ~rng ~n:c.n ~width:3.2 ~height:3.2 ~r:1.5 ~gray_g':0.5 ()
  in
  let n = Dual.n dual in
  let params = Localcast.Params.of_dual ~eps1:0.2 ~tack_phases:1 dual in
  let rounds =
    match c.processes with
    | Lb_service { phases; _ } -> phases * params.Localcast.Params.phase_len
    | Bernoulli _ | Relay _ -> c.rounds
  in
  let faults =
    match c.faults with
    | None -> None
    | Some spec -> (
        match Plan.of_spec ~seed:c.seed ~n ~rounds spec with
        | Ok plan -> Some plan
        | Error e -> Alcotest.failf "config %s: bad fault spec: %s" c.name e)
  in
  let reception =
    match Radiosim.Reception.of_spec c.reception with
    | Ok m -> m
    | Error e -> Alcotest.failf "config %s: bad reception spec: %s" c.name e
  in
  let sink = Obs.Sink.create ~capacity:(max 65536 (rounds * ((2 * n) + 8))) () in
  let scheduler = c.scheduler ~seed:c.seed in
  let env = Radiosim.Env.null ~name:c.name () in
  (match c.processes with
  | Bernoulli p ->
      let node_rng = Rng.of_int (c.seed + 1) in
      let nodes =
        Array.init n (fun src -> process ~p ~src ~rng:(Rng.split node_rng))
      in
      let revive ~node ~round = revive_of ~seed:c.seed ~p ~node ~round in
      let (_ : int) =
        Engine.run ~sink ?faults ~reception ~revive ~dual ~scheduler ~nodes
          ~env ~rounds ()
      in
      ()
  | Relay { spec; budget } ->
      let strat = strategy_of ~name:c.name spec in
      let nodes =
        Array.init n (fun node ->
            Baseline.Strategy.relay strat
              ?initial:
                (if node = 0 then Some (M.payload ~src:0 ~uid:0 ()) else None)
              ~budget
              ~rng:(Baseline.Strategy.node_rng ~seed:c.seed ~node ())
              ~node ())
      in
      (* A revived relay has lost the message: fresh strategy state on
         the node's revival-round stream, silent until it re-acquires. *)
      let revive ~node ~round =
        Baseline.Strategy.relay strat ~budget
          ~rng:(Baseline.Strategy.node_rng ~round ~seed:c.seed ~node ())
          ~node ()
      in
      let (_ : int) =
        Engine.run ~sink ?faults ~reception ~revive ~dual ~scheduler ~nodes
          ~env ~rounds ()
      in
      ()
  | Lb_service { senders; phases } ->
      let (_ : Localcast.Service.outcome) =
        Localcast.Service.run ~scheduler ~sink ?faults ~reception ~dual ~params
          ~senders ~phases ~seed:c.seed ()
      in
      ());
  if Obs.Sink.dropped sink > 0 then
    Alcotest.failf "config %s: sink dropped %d events (capacity too small)"
      c.name (Obs.Sink.dropped sink);
  let keep =
    match c.processes with
    | Lb_service _ -> protocol_or_fault
    | Bernoulli _ | Relay _ -> fun _ -> true
  in
  let buf = Buffer.create 65536 in
  Obs.Sink.iter sink (fun ev ->
      if keep ev then begin
        Buffer.add_string buf (Obs.Event.to_json ev);
        Buffer.add_char buf '\n'
      end);
  Buffer.contents buf

let golden_dir () =
  match Sys.getenv_opt "GOLDEN_OUT" with Some dir -> dir | None -> "golden"

let golden_path name = Filename.concat (golden_dir ()) (name ^ ".jsonl")

let read_file path = In_channel.with_open_bin path In_channel.input_all

let first_diff expected actual =
  let el = String.split_on_char '\n' expected in
  let al = String.split_on_char '\n' actual in
  let rec scan i = function
    | [], [] -> None
    | e :: _, [] -> Some (i, e, "<missing line>")
    | [], a :: _ -> Some (i, "<missing line>", a)
    | e :: es, a :: as_ ->
        if String.equal e a then scan (i + 1) (es, as_) else Some (i, e, a)
  in
  scan 1 (el, al)

let conformance c () =
  let actual = run_config c in
  match Sys.getenv_opt "GOLDEN_OUT" with
  | Some _ ->
      Out_channel.with_open_bin (golden_path c.name) (fun oc ->
          Out_channel.output_string oc actual)
  | None ->
      let path = golden_path c.name in
      if not (Sys.file_exists path) then
        Alcotest.failf
          "missing golden trace %s — regenerate with GOLDEN_OUT (see header \
           of test_golden.ml)"
          path;
      let expected = read_file path in
      if not (String.equal expected actual) then begin
        match first_diff expected actual with
        | Some (line, e, a) ->
            Alcotest.failf
              "%s: trace diverges at line %d@.  golden: %s@.  actual: %s@.\
               (%d golden bytes vs %d actual)"
              c.name line e a (String.length expected) (String.length actual)
        | None ->
            Alcotest.failf "%s: traces differ (%d vs %d bytes)" c.name
              (String.length expected) (String.length actual)
      end

(* Committed corpus files must round-trip through the event codecs line
   by line — to_json (of_json_line l) = l — independently of what the
   simulator currently produces.  This is what lets an offline consumer
   trust the artifact format. *)
let codec_validation c () =
  let path = golden_path c.name in
  if not (Sys.file_exists path) then
    Alcotest.failf "missing golden trace %s" path;
  let lines = String.split_on_char '\n' (read_file path) in
  let count = ref 0 in
  List.iteri
    (fun i line ->
      if String.length line > 0 then begin
        incr count;
        match Obs.Event.of_json_line line with
        | Error e -> Alcotest.failf "%s line %d: %s" c.name (i + 1) e
        | Ok ev ->
            let rt = Obs.Event.to_json ev in
            if not (String.equal rt line) then
              Alcotest.failf
                "%s line %d: codec not an exact inverse@.  file:      %s@.  \
                 roundtrip: %s"
                c.name (i + 1) line rt
      end)
    lines;
  if !count = 0 then Alcotest.failf "%s: empty golden trace" c.name

let suite =
  List.map
    (fun c ->
      Alcotest.test_case ("conformance: " ^ c.name) `Quick (conformance c))
    configs
  @ List.map
      (fun c ->
        Alcotest.test_case ("codec roundtrip: " ^ c.name) `Quick
          (codec_validation c))
      configs
