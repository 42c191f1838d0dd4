(* Tests of the fault-injection layer: plan construction and parsing,
   engine crash/restart/jam semantics, the Crash/Restart observability
   events, the fault-aware spec auditor, and the property that an empty
   plan leaves the engine bit-identical to a fault-free run. *)

open Core
module Dual = Dualgraph.Dual
module Geo = Dualgraph.Geometric
module Sch = Radiosim.Scheduler
module Engine = Radiosim.Engine
module Trace = Radiosim.Trace
module P = Radiosim.Process
module M = Localcast.Messages
module Rng = Prng.Rng
module Plan = Faults.Plan
module E = Obs.Event
module Audit = Obs.Audit

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let raises_invalid name f =
  match f () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.failf "%s: expected Invalid_argument" name

(* --- plan construction and queries --- *)

let test_plan_queries () =
  let plan =
    Plan.make ~n:6 ~crashes:[ (2, 5) ] ~restarts:[ (2, 9) ]
      ~jams:[ (4, 3, 7); (4, 10, 12) ]
      ()
  in
  checki "n" 6 (Plan.n plan);
  checkb "not empty" false (Plan.is_empty plan);
  checkb "alive before crash" true (Plan.alive plan ~node:2 ~round:4);
  checkb "dead at crash" false (Plan.alive plan ~node:2 ~round:5);
  checkb "dead just before restart" false (Plan.alive plan ~node:2 ~round:8);
  checkb "alive at restart" true (Plan.alive plan ~node:2 ~round:9);
  checkb "other nodes never die" true (Plan.alive plan ~node:0 ~round:1000);
  checkb "alive_through spanning the gap" false
    (Plan.alive_through plan ~node:2 ~from:0 ~until:20);
  checkb "alive_through before" true
    (Plan.alive_through plan ~node:2 ~from:0 ~until:4);
  checkb "alive_through after" true
    (Plan.alive_through plan ~node:2 ~from:9 ~until:50);
  checkb "jam window 1" true (Plan.jammed plan ~node:4 ~round:3);
  checkb "jam window 1 end is exclusive" false (Plan.jammed plan ~node:4 ~round:7);
  checkb "between windows" false (Plan.jammed plan ~node:4 ~round:8);
  checkb "jam window 2" true (Plan.jammed plan ~node:4 ~round:11);
  checkb "unjammed node" false (Plan.jammed plan ~node:1 ~round:5);
  Alcotest.(check (option int)) "crash_round" (Some 5) (Plan.crash_round plan 2);
  Alcotest.(check (option int)) "restart_round" (Some 9) (Plan.restart_round plan 2);
  Alcotest.(check (option int)) "no crash" None (Plan.crash_round plan 0);
  checkb "empty is empty" true (Plan.is_empty (Plan.empty ~n:4))

let test_plan_validation () =
  raises_invalid "node out of range" (fun () ->
      Plan.make ~n:4 ~crashes:[ (7, 2) ] ());
  raises_invalid "negative crash round" (fun () ->
      Plan.make ~n:4 ~crashes:[ (1, -1) ] ());
  raises_invalid "duplicate crash" (fun () ->
      Plan.make ~n:4 ~crashes:[ (1, 2); (1, 5) ] ());
  raises_invalid "restart without crash" (fun () ->
      Plan.make ~n:4 ~restarts:[ (1, 5) ] ());
  raises_invalid "restart not after crash" (fun () ->
      Plan.make ~n:4 ~crashes:[ (1, 5) ] ~restarts:[ (1, 5) ] ());
  raises_invalid "overlapping jams" (fun () ->
      Plan.make ~n:4 ~jams:[ (2, 0, 6); (2, 5, 9) ] ());
  raises_invalid "empty jam window" (fun () ->
      Plan.make ~n:4 ~jams:[ (2, 5, 5) ] ())

let test_of_spec () =
  (match Plan.of_spec ~seed:1 ~n:10 ~rounds:100 " crash:3@10; restart:3@40 ;jam:7@0-25" with
  | Error e -> Alcotest.failf "spec rejected: %s" e
  | Ok plan ->
      Alcotest.(check (option int)) "crash" (Some 10) (Plan.crash_round plan 3);
      Alcotest.(check (option int)) "restart" (Some 40) (Plan.restart_round plan 3);
      checkb "jam" true (Plan.jammed plan ~node:7 ~round:24);
      checkb "jam end" false (Plan.jammed plan ~node:7 ~round:25));
  (match Plan.of_spec ~seed:5 ~n:10 ~rounds:200 "churn:0.05,30;crash:0@7" with
  | Error e -> Alcotest.failf "churn spec rejected: %s" e
  | Ok plan ->
      (* The explicit crash clause wins over churn for node 0. *)
      Alcotest.(check (option int)) "explicit crash kept" (Some 7)
        (Plan.crash_round plan 0);
      Alcotest.(check (option int)) "explicit crash has no churn restart" None
        (Plan.restart_round plan 0);
      (* Churned nodes restart exactly downtime rounds after crashing. *)
      for v = 1 to 9 do
        match Plan.crash_round plan v with
        | None -> ()
        | Some c ->
            checkb "churn crash >= 1" true (c >= 1);
            Alcotest.(check (option int))
              (Printf.sprintf "churn restart of %d" v)
              (Some (c + 30)) (Plan.restart_round plan v)
      done);
  let rejected spec =
    match Plan.of_spec ~seed:1 ~n:10 ~rounds:100 spec with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "spec %S should be rejected" spec
  in
  List.iter rejected
    [ "bogus"; "crash:99@1"; "crash:1"; "jam:1@9-3"; "churn:abc"; "churn:1.5";
      "restart:2@5" ]

let test_churn_determinism () =
  let mk seed = Plan.churn ~seed ~n:40 ~rounds:500 ~rate:0.01 ~downtime:50
      ~protect:[ 0; 3 ] ()
  in
  let a = mk 7 and b = mk 7 and c = mk 8 in
  for v = 0 to 39 do
    Alcotest.(check (option int))
      (Printf.sprintf "same seed, same crash for %d" v)
      (Plan.crash_round a v) (Plan.crash_round b v)
  done;
  Alcotest.(check (option int)) "protected 0" None (Plan.crash_round a 0);
  Alcotest.(check (option int)) "protected 3" None (Plan.crash_round a 3);
  let crashes plan =
    List.length
      (List.filter_map (Plan.crash_round plan) (List.init 40 Fun.id))
  in
  checkb "some node churns at rate 0.01 over 500 rounds" true (crashes a > 0);
  checkb "different seed, different plan" true
    (List.init 40 (Plan.crash_round a) <> List.init 40 (Plan.crash_round c))

let test_cursor () =
  let plan =
    Plan.make ~n:5 ~crashes:[ (1, 3); (4, 2) ] ~restarts:[ (1, 6) ] ()
  in
  let cur = Plan.cursor plan in
  let seen = ref [] in
  for round = 0 to 8 do
    Plan.apply cur ~round (fun node ev -> seen := (round, node, ev) :: !seen)
  done;
  checkb "transition sequence" true
    (List.rev !seen = [ (2, 4, Plan.Crash); (3, 1, Plan.Crash); (6, 1, Plan.Restart) ])

(* --- engine semantics on a 3-node line: 0 – 1 – 2, node 1 transmitting
   every round, reliable edges only --- *)

let beacon src =
  {
    P.decide =
      (fun ~round:_ _ -> P.Transmit (M.Data (M.payload ~src ~uid:0 ())));
    absorb = (fun ~round:_ _ -> []);
  }

let line_run ?faults ?revive ~rounds () =
  let dual = Geo.line ~n:3 ~spacing:0.9 ~r:1.5 () in
  let nodes =
    Array.init 3 (fun src -> if src = 1 then beacon 1 else P.silent ())
  in
  let trace, observer = Trace.recorder () in
  let (_ : int) =
    Engine.run ~observer ?faults ?revive ~dual ~scheduler:Sch.reliable_only
      ~nodes
      ~env:(Radiosim.Env.null ~name:"faults-line" ())
      ~rounds ()
  in
  trace

let delivered_at trace ~node ~round =
  (Trace.get trace round).Trace.delivered.(node) <> None

let test_engine_crash_silences () =
  let faults = Plan.make ~n:3 ~crashes:[ (1, 5) ] () in
  let trace = line_run ~faults ~rounds:10 () in
  for r = 0 to 9 do
    let expect = r < 5 in
    checkb (Printf.sprintf "delivery to 0 at round %d" r) expect
      (delivered_at trace ~node:0 ~round:r);
    checkb (Printf.sprintf "delivery to 2 at round %d" r) expect
      (delivered_at trace ~node:2 ~round:r);
    (match (Trace.get trace r).Trace.actions.(1) with
    | P.Transmit _ -> checkb "transmits while alive" true expect
    | P.Listen -> checkb "listens only when dead" false expect)
  done

let test_engine_crashed_listener_deaf () =
  let faults = Plan.make ~n:3 ~crashes:[ (2, 4) ] () in
  let trace = line_run ~faults ~rounds:8 () in
  for r = 0 to 7 do
    checkb (Printf.sprintf "delivery to 2 at round %d" r) (r < 4)
      (delivered_at trace ~node:2 ~round:r);
    (* The other listener is unaffected. *)
    checkb "node 0 still hears" true (delivered_at trace ~node:0 ~round:r)
  done

let test_engine_restart_revives () =
  let faults = Plan.make ~n:3 ~crashes:[ (1, 5) ] ~restarts:[ (1, 10) ] () in
  let revived = ref [] in
  let revive ~node ~round =
    revived := (node, round) :: !revived;
    beacon node
  in
  let trace = line_run ~faults ~revive ~rounds:15 () in
  for r = 0 to 14 do
    let expect = r < 5 || r >= 10 in
    checkb (Printf.sprintf "delivery to 0 at round %d" r) expect
      (delivered_at trace ~node:0 ~round:r)
  done;
  checkb "revive called exactly once, at the restart round" true
    (!revived = [ (1, 10) ])

let test_engine_jam_off_air () =
  let faults = Plan.make ~n:3 ~jams:[ (1, 3, 7) ] () in
  let trace = line_run ~faults ~rounds:10 () in
  for r = 0 to 9 do
    let jammed = r >= 3 && r < 7 in
    (* The process keeps deciding Transmit — the trace still records its
       intent — but nothing reaches the listeners inside the window. *)
    (match (Trace.get trace r).Trace.actions.(1) with
    | P.Transmit _ -> ()
    | P.Listen -> Alcotest.failf "round %d: jammed node stopped deciding" r);
    checkb (Printf.sprintf "delivery to 0 at round %d" r) (not jammed)
      (delivered_at trace ~node:0 ~round:r);
    checkb (Printf.sprintf "delivery to 2 at round %d" r) (not jammed)
      (delivered_at trace ~node:2 ~round:r)
  done

(* --- observability: Crash/Restart events in the stream and over JSONL --- *)

let test_crash_restart_events () =
  let dual = Geo.line ~n:3 ~spacing:0.9 ~r:1.5 () in
  let faults = Plan.make ~n:3 ~crashes:[ (1, 4) ] ~restarts:[ (1, 8) ] () in
  let sink = Obs.Sink.create ~capacity:4096 () in
  let nodes = Array.init 3 (fun src -> if src = 1 then beacon 1 else P.silent ()) in
  let (_ : int) =
    Engine.run ~sink ~faults
      ~revive:(fun ~node ~round:_ -> beacon node)
      ~dual ~scheduler:Sch.reliable_only ~nodes
      ~env:(Radiosim.Env.null ~name:"faults-obs" ())
      ~rounds:12 ()
  in
  let events = Obs.Sink.to_list sink in
  checkb "crash event emitted" true
    (List.exists (E.equal (E.Crash { round = 4; node = 1 })) events);
  checkb "restart event emitted" true
    (List.exists (E.equal (E.Restart { round = 8; node = 1 })) events);
  checkb "no other crash events" true
    (List.length (List.filter (fun e -> E.kind e = "crash") events) = 1);
  (* Exact-inverse codecs for the two fault constructors. *)
  List.iter
    (fun ev ->
      let line = E.to_json ev in
      match E.of_json_line line with
      | Ok ev' ->
          checkb ("roundtrip " ^ E.kind ev) true (E.equal ev ev');
          Alcotest.(check string) "stable json" line (E.to_json ev')
      | Error msg -> Alcotest.failf "parse of %s failed: %s" line msg)
    [ E.Crash { round = 4; node = 1 }; E.Restart { round = 8; node = 1 } ]

(* --- fault-aware auditing: fixtures built directly from events --- *)

let feed_rounds audit ~until events_at =
  for r = 0 to until do
    Audit.observe audit (E.Round_start { round = r });
    List.iter (Audit.observe audit) (events_at r);
    Audit.observe audit
      (E.Round_end { round = r; transmitters = 0; deliveries = 0; collisions = 0 })
  done

let test_audit_crash_waives_missing_ack () =
  (* A sender crashes inside its ack window: no Missing_ack. *)
  let faulted = Audit.create ~t_ack:5 () in
  feed_rounds faulted ~until:10 (fun r ->
      if r = 0 then [ E.Bcast { round = 0; node = 3; uid = 1 } ]
      else if r = 3 then [ E.Crash { round = 3; node = 3 } ]
      else []);
  Audit.finish faulted;
  checki "no violations under crash" 0 (List.length (Audit.violations faulted));
  (* Control: same stream without the crash is a Missing_ack. *)
  let control = Audit.create ~t_ack:5 () in
  feed_rounds control ~until:10 (fun r ->
      if r = 0 then [ E.Bcast { round = 0; node = 3; uid = 1 } ] else []);
  Audit.finish control;
  match Audit.violations control with
  | [ { Audit.kind = Audit.Missing_ack { bcast_round = 0 }; node = 3; _ } ] -> ()
  | vs -> Alcotest.failf "control: expected one Missing_ack, got %d" (List.length vs)

let test_audit_crash_waives_late_ack () =
  (* An ack arriving after the deadline is not Late when the sender was
     down in between (its obligation was waived at the crash). *)
  let faulted = Audit.create ~t_ack:3 () in
  feed_rounds faulted ~until:4 (fun r ->
      if r = 0 then [ E.Bcast { round = 0; node = 2; uid = 9 } ]
      else if r = 2 then
        [ E.Crash { round = 2; node = 2 }; E.Restart { round = 2; node = 2 } ]
      else if r = 4 then [ E.Ack { round = 4; node = 2; uid = 9; latency = 4 } ]
      else []);
  Audit.finish faulted;
  checki "no late ack under crash" 0 (List.length (Audit.violations faulted));
  let control = Audit.create ~t_ack:3 () in
  feed_rounds control ~until:4 (fun r ->
      if r = 0 then [ E.Bcast { round = 0; node = 2; uid = 9 } ]
      else if r = 4 then [ E.Ack { round = 4; node = 2; uid = 9; latency = 4 } ]
      else []);
  Audit.finish control;
  match Audit.violations control with
  | [ { Audit.kind = Audit.Late_ack { latency = 4 }; node = 2; _ } ] -> ()
  | vs -> Alcotest.failf "control: expected one Late_ack, got %d" (List.length vs)

let test_audit_crash_waives_progress () =
  (* Receiver 0 crashes mid-phase while its neighbor 1 broadcasts all
     phase: no Progress_miss for the dead receiver. *)
  let g = Dualgraph.Graph.create ~n:2 ~edges:[ (0, 1) ] in
  let stream crash audit =
    Audit.observe audit (E.Phase_start { round = 0; phase = 0; preamble = false });
    feed_rounds audit ~until:3 (fun r ->
        if r = 0 then [ E.Bcast { round = 0; node = 1; uid = 7 } ]
        else if r = 2 && crash then [ E.Crash { round = 2; node = 0 } ]
        else []);
    Audit.observe audit (E.Phase_start { round = 4; phase = 1; preamble = false });
    Audit.finish audit
  in
  let faulted = Audit.create ~t_ack:1000 ~t_prog:4 ~g () in
  stream true faulted;
  checki "no progress miss for a dead receiver" 0
    (List.length (Audit.violations faulted));
  let control = Audit.create ~t_ack:1000 ~t_prog:4 ~g () in
  stream false control;
  match Audit.violations control with
  | [ { Audit.kind = Audit.Progress_miss { phase = 0 }; node = 0; _ } ] -> ()
  | vs ->
      Alcotest.failf "control: expected one phase-0 Progress_miss, got %d"
        (List.length vs)

(* Acceptance check: a full service run under a churn plan produces zero
   false deterministic-spec breaches (Late_ack / Missing_ack) from the
   stream auditor. *)
let test_audit_no_false_breaches_under_churn () =
  let rng = Rng.of_int 42 in
  let dual = Geo.random_field ~rng ~n:16 ~width:3.5 ~height:3.5 ~r:1.5 ~gray_g':0.5 () in
  let n = Dual.n dual in
  let params = Localcast.Params.of_dual ~eps1:0.1 ~tack_phases:2 dual in
  let phases = 2 in
  let rounds = phases * params.Localcast.Params.phase_len in
  let faults =
    Plan.churn ~seed:42 ~n ~rounds ~rate:0.004
      ~downtime:params.Localcast.Params.phase_len ()
  in
  let sink = Obs.Sink.create ~capacity:(max 65536 (rounds * ((2 * n) + 16))) () in
  let auditor = Localcast.Lb_obs.auditor ~dual ~params () in
  Obs.Sink.on_event sink (Audit.observe auditor);
  let (_ : Localcast.Service.outcome) =
    Localcast.Service.run ~sink ~faults ~dual ~params ~senders:[ 0; 5 ] ~phases
      ~seed:42 ()
  in
  Audit.finish auditor;
  let ack_breaches =
    List.filter
      (fun v ->
        match v.Audit.kind with
        | Audit.Late_ack _ | Audit.Missing_ack _ -> true
        | Audit.Progress_miss _ | Audit.Delta_breach _ -> false)
      (Audit.violations auditor)
  in
  checki "no false ack breaches under churn" 0 (List.length ack_breaches)

(* --- properties --- *)

let random_setup seed =
  let rng = Rng.of_int seed in
  let n = 2 + Rng.int rng 20 in
  let dual =
    Geo.random_field ~rng ~n ~width:3.0 ~height:3.0 ~r:1.6 ~gray_g':0.5 ()
  in
  let scheduler =
    match seed mod 3 with
    | 0 -> Sch.bernoulli ~seed ~p:0.4
    | 1 -> Sch.all_edges
    | _ -> Sch.edge_phase_flicker ~period:4
  in
  (dual, scheduler)

let make_nodes ~seed ~n =
  let node_rng = Rng.of_int (seed + 1) in
  Array.init n (fun src ->
      let node_rng = Rng.split node_rng in
      {
        P.decide =
          (fun ~round:_ _ ->
            if Rng.bernoulli node_rng 0.3 then
              P.Transmit (M.Data (M.payload ~src ~uid:0 ()))
            else P.Listen);
        absorb =
          (fun ~round delivered ->
            match delivered with
            | Some (M.Data payload) -> [ (round, payload.M.src) ]
            | Some (M.Seed_msg _) | None -> []);
      })

let run_trace ?faults ?revive ~reference seed =
  let dual, scheduler = random_setup seed in
  let nodes = make_nodes ~seed ~n:(Dual.n dual) in
  let trace, observer = Trace.recorder () in
  let env = Radiosim.Env.null ~name:"faults-prop" () in
  let (_ : int) =
    if reference then
      Oracle.run_reference ~observer ~dual ~scheduler ~nodes ~env ~rounds:25 ()
    else
      Engine.run ~observer ?faults ?revive ~dual ~scheduler ~nodes ~env
        ~rounds:25 ()
  in
  trace

let records_equal a b =
  a.Trace.round = b.Trace.round
  && a.Trace.inputs = b.Trace.inputs
  && a.Trace.actions = b.Trace.actions
  && a.Trace.delivered = b.Trace.delivered
  && a.Trace.outputs = b.Trace.outputs

let traces_equal a b =
  Trace.length a = Trace.length b
  && begin
       let ok = ref true in
       for i = 0 to Trace.length a - 1 do
         if not (records_equal (Trace.get a i) (Trace.get b i)) then ok := false
       done;
       !ok
     end

(* One random LBAlg run watched by every feed of the spec monitor: the
   record-fed Lb_spec (with its sink tap), the frozen record-fed oracle,
   and the event-fed auditor both online on the sink and replayed from it
   afterwards.  Random fields of 2-20 nodes, random schedulers and sender
   sets, 1-3 phases plus an optional partial tail, and five plan shapes:
   none, permanent churn, churn with restarts, a sender crashing and
   restarting mid-bcast, and jam windows with churn. *)
let spec_feeds seed =
  let rng = Rng.of_int seed in
  let dual =
    Geo.random_field ~rng ~n:(2 + Rng.int rng 19) ~width:3.0 ~height:3.0 ~r:1.6
      ~gray_g':0.5 ()
  in
  let n = Dual.n dual in
  let params = Localcast.Params.of_dual ~eps1:0.2 ~tack_phases:1 dual in
  let phase_len = params.Localcast.Params.phase_len in
  let rounds =
    ((1 + Rng.int rng 3) * phase_len)
    + if Rng.bool rng then Rng.int rng phase_len else 0
  in
  let senders = List.filter (fun _ -> Rng.int rng 3 = 0) (List.init n Fun.id) in
  let scheduler =
    match Rng.int rng 3 with
    | 0 -> Sch.bernoulli ~seed ~p:0.5
    | 1 -> Sch.all_edges
    | _ -> Sch.edge_phase_flicker ~period:4
  in
  let sender = match senders with v :: _ -> v | [] -> 0 in
  let faults =
    match Rng.int rng 5 with
    | 0 -> None
    | 1 -> Some (Plan.churn ~seed ~n ~rounds ~rate:0.0005 ())
    | 2 -> Some (Plan.churn ~seed ~n ~rounds ~rate:0.0005 ~downtime:(phase_len / 2) ())
    | 3 ->
        let crash = 1 + Rng.int rng (phase_len - 1) in
        Some
          (Plan.make ~n ~crashes:[ (sender, crash) ]
             ~restarts:[ (sender, crash + 1 + Rng.int rng phase_len) ]
             ())
    | _ ->
        let from = Rng.int rng phase_len in
        let spec =
          Printf.sprintf "jam:%d@%d-%d;churn:0.0005,%d" sender from
            (from + 1 + Rng.int rng phase_len)
            (phase_len / 2)
        in
        Result.to_option (Plan.of_spec ~seed ~n ~rounds spec)
  in
  let sink = Obs.Sink.create ~capacity:(max 65536 (rounds * ((3 * n) + 8))) () in
  let online = Localcast.Lb_obs.auditor ~dual ~params () in
  Obs.Sink.on_event sink (Audit.observe online);
  let envt = Localcast.Lb_env.saturate ~n ~senders () in
  let monitor = Localcast.Lb_spec.monitor ?faults ~dual ~params () in
  let (_ : Localcast.Lb_obs.t) = Localcast.Lb_obs.attach ~sink monitor in
  let oracle = Oracle.Lb_spec.monitor ?faults ~dual ~params () in
  let (_ : int) =
    Engine.run ?faults ~sink
      ~revive:(Localcast.Service.reviver ~params ~seed ())
      ~observer:(fun record ->
        Localcast.Lb_spec.observe monitor record;
        Oracle.Lb_spec.observe oracle record)
      ~dual ~scheduler
      ~nodes:(Localcast.Lb_alg.network params ~rng:(Rng.of_int (seed + 1)) ~n)
      ~env:(Localcast.Lb_env.env envt) ~rounds ()
  in
  Audit.finish online;
  let offline = Localcast.Lb_obs.auditor ~dual ~params () in
  Obs.Sink.iter sink (Audit.observe offline);
  Audit.finish offline;
  ( Obs.Sink.dropped sink,
    Localcast.Lb_spec.finish monitor,
    Oracle.Lb_spec.finish oracle,
    Localcast.Lb_spec.audit monitor,
    [ online; offline ] )

let qcheck_cases =
  let open QCheck in
  [
    Test.make
      ~name:"spec monitor: record feed = frozen oracle, event feeds = record feed"
      ~count:200 small_nat
      (fun seed ->
        let dropped, report, reference, records, events = spec_feeds seed in
        let deadline_misses a =
          List.length
            (List.filter
               (fun v ->
                 match v.Audit.kind with
                 | Audit.Late_ack _ | Audit.Missing_ack _ -> true
                 | Audit.Progress_miss _ | Audit.Delta_breach _ -> false)
               (Audit.violations a))
        in
        let misses a =
          List.filter_map
            (fun v ->
              match v.Audit.kind with
              | Audit.Progress_miss { phase } -> Some (v.Audit.node, phase)
              | _ -> None)
            (Audit.violations a)
        in
        if dropped > 0 then Test.fail_report "sink dropped events";
        if report <> reference then Test.fail_report "record feed differs from the oracle";
        List.iter
          (fun a ->
            if deadline_misses a <> report.late_ack_count + report.missing_ack_count
            then Test.fail_report "event feed: late + missing acks differ";
            if misses a <> misses records then
              Test.fail_report "event feed: progress misses differ";
            if Audit.report a <> report then Test.fail_report "event feed: report differs")
          events;
        List.length (misses records) = report.progress_failures);

    Test.make
      ~name:"empty fault plan is trace-identical to no plan (and the reference)"
      ~count:40 small_int
      (fun seed ->
        let dual, _ = random_setup seed in
        let n = Dual.n dual in
        let plain = run_trace ~reference:false seed in
        let faulted =
          run_trace
            ~faults:(Plan.empty ~n)
            ~revive:(fun ~node:_ ~round:_ ->
              raise (Failure "revive fired under an empty plan"))
            ~reference:false seed
        in
        let reference = run_trace ~reference:true seed in
        traces_equal plain faulted && traces_equal plain reference);
    Test.make
      ~name:"audit verdicts: online consumer = offline replay of the stream"
      ~count:6 small_int
      (fun seed ->
        let rng = Rng.of_int (seed + 5) in
        let n = 6 + Rng.int rng 8 in
        let dual =
          Geo.random_field ~rng ~n ~width:3.0 ~height:3.0 ~r:1.5 ~gray_g':0.5 ()
        in
        let n = Dual.n dual in
        let params = Localcast.Params.of_dual ~eps1:0.1 ~tack_phases:2 dual in
        let phases = 2 in
        let rounds = phases * params.Localcast.Params.phase_len in
        let faults =
          Plan.churn ~seed ~n ~rounds ~rate:0.002
            ~downtime:params.Localcast.Params.phase_len ()
        in
        let sink =
          Obs.Sink.create ~capacity:(max 65536 (rounds * ((2 * n) + 16))) ()
        in
        let online = Localcast.Lb_obs.auditor ~dual ~params () in
        Obs.Sink.on_event sink (Audit.observe online);
        let (_ : Localcast.Service.outcome) =
          Localcast.Service.run ~sink ~faults ~dual ~params ~senders:[ 0 ]
            ~phases ~seed ()
        in
        Audit.finish online;
        if Obs.Sink.dropped sink > 0 then
          Test.fail_report "sink dropped events; offline replay incomplete";
        let offline = Localcast.Lb_obs.auditor ~dual ~params () in
        Obs.Sink.iter sink (Audit.observe offline);
        Audit.finish offline;
        let summary a =
          List.map
            (fun v -> (v.Audit.kind, v.Audit.node, v.Audit.round, v.Audit.detail))
            (Audit.violations a)
        in
        summary online = summary offline
        && Audit.report online = Audit.report offline
        && Audit.rounds_seen online = Audit.rounds_seen offline);
  ]

let suite =
  [
    Alcotest.test_case "plan: construction and queries" `Quick test_plan_queries;
    Alcotest.test_case "plan: validation" `Quick test_plan_validation;
    Alcotest.test_case "plan: of_spec grammar" `Quick test_of_spec;
    Alcotest.test_case "plan: churn determinism" `Quick test_churn_determinism;
    Alcotest.test_case "plan: cursor transition order" `Quick test_cursor;
    Alcotest.test_case "engine: crash silences a transmitter" `Quick
      test_engine_crash_silences;
    Alcotest.test_case "engine: crashed listener is deaf" `Quick
      test_engine_crashed_listener_deaf;
    Alcotest.test_case "engine: restart revives with fresh state" `Quick
      test_engine_restart_revives;
    Alcotest.test_case "engine: jam keeps the node off air" `Quick
      test_engine_jam_off_air;
    Alcotest.test_case "obs: crash/restart events and codecs" `Quick
      test_crash_restart_events;
    Alcotest.test_case "audit: crash waives missing-ack" `Quick
      test_audit_crash_waives_missing_ack;
    Alcotest.test_case "audit: crash waives late-ack" `Quick
      test_audit_crash_waives_late_ack;
    Alcotest.test_case "audit: crash waives progress obligations" `Quick
      test_audit_crash_waives_progress;
    Alcotest.test_case "audit: zero false ack breaches under churn" `Slow
      test_audit_no_false_breaches_under_churn;
  ]
  @ List.map QCheck_alcotest.to_alcotest qcheck_cases
