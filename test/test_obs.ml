(* Tests for the observability layer: the event sink (ring semantics,
   JSONL round-trips), the flat-JSON parser's rejections, the metrics
   registry, the spec auditor (unit cases plus a QCheck equivalence with
   an offline reference scan), and the engine/service integration —
   including the bit-identity of uninstrumented traces. *)

open Core

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

module Dual = Dualgraph.Dual
module Geo = Dualgraph.Geometric
module Sch = Radiosim.Scheduler
module Engine = Radiosim.Engine
module Trace = Radiosim.Trace
module P = Radiosim.Process
module M = Localcast.Messages
module Params = Localcast.Params
module L = Localcast
module Rng = Prng.Rng
module E = Obs.Event
module Sink = Obs.Sink
module Metrics = Obs.Metrics
module Audit = Obs.Audit

let ev i = E.Mark { round = i; node = -1; label = Printf.sprintf "m%d" i }

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  nl = 0 || go 0

(* --- sink: ring semantics --- *)

let test_ring_wraparound () =
  let s = Sink.create ~capacity:4 () in
  checki "empty" 0 (Sink.length s);
  for i = 0 to 9 do
    Sink.emit s (ev i)
  done;
  checki "emitted" 10 (Sink.emitted s);
  checki "length capped" 4 (Sink.length s);
  checki "dropped" 6 (Sink.dropped s);
  (* the retained window is the newest four, oldest first *)
  List.iteri
    (fun i e -> checkb (Printf.sprintf "slot %d" i) true (E.equal e (ev (6 + i))))
    (Sink.to_list s);
  checkb "get oldest" true (E.equal (Sink.get s 0) (ev 6));
  checkb "get newest" true (E.equal (Sink.get s 3) (ev 9));
  Alcotest.check_raises "get out of range"
    (Invalid_argument "Sink.get: index out of range") (fun () ->
      ignore (Sink.get s 4));
  Sink.clear s;
  checki "cleared" 0 (Sink.length s);
  checki "cleared emitted" 0 (Sink.emitted s)

let test_consumers_see_everything () =
  (* Streaming consumers get the complete stream even past wraparound,
     in registration order. *)
  let s = Sink.create ~capacity:2 () in
  let a = ref [] and b = ref [] in
  Sink.on_event s (fun e -> a := E.round e :: !a);
  Sink.on_event s (fun e -> b := (E.round e * 10) :: !b);
  for i = 0 to 7 do
    Sink.emit s (ev i)
  done;
  checki "consumer a saw all" 8 (List.length !a);
  checkb "order preserved" true (List.rev !a = [ 0; 1; 2; 3; 4; 5; 6; 7 ]);
  checkb "second consumer too" true (List.rev !b = List.map (fun x -> x * 10) [ 0; 1; 2; 3; 4; 5; 6; 7 ]);
  Sink.clear s;
  Sink.emit s (ev 99);
  checkb "consumers survive clear" true (List.hd !a = 99)

(* --- event JSON round-trips --- *)

let all_constructors =
  [
    E.Round_start { round = 0 };
    E.Round_end { round = 3; transmitters = 2; deliveries = 5; collisions = 1 };
    E.Transmit { round = 1; node = 7 };
    E.Deliver { round = 1; node = 8 };
    E.Collision { round = 1; node = 9 };
    E.Phase_start { round = 12; phase = 2; preamble = true };
    E.Phase_start { round = 18; phase = 3; preamble = false };
    E.Seed_commit { round = 5; node = 4; owner = -1 };
    E.Bcast { round = 0; node = 3; uid = 17 };
    E.Recv { round = 2; node = 6; src = 3; uid = 17 };
    E.Ack { round = 9; node = 3; uid = 17; latency = 9 };
    E.Progress { round = 7; node = 6; latency = 7 };
    E.Mark { round = 4; node = -1; label = "weird \"label\"\nwith\tescapes\\" };
    E.Crash { round = 11; node = 5 };
    E.Restart { round = 15; node = 5 };
  ]

let test_json_roundtrip_per_constructor () =
  List.iter
    (fun e ->
      let line = E.to_json e in
      match E.of_json_line line with
      | Ok e' ->
          checkb (Printf.sprintf "roundtrip %s" (E.kind e)) true (E.equal e e')
      | Error msg -> Alcotest.failf "parse of %s failed: %s" line msg)
    all_constructors

let test_jsonl_file_roundtrip () =
  let s = Sink.create ~capacity:64 () in
  List.iter (Sink.emit s) all_constructors;
  let path = Filename.temp_file "obs_test" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Sink.save_jsonl s ~path;
      match Sink.load_jsonl ~path with
      | Error msg -> Alcotest.failf "load_jsonl: %s" msg
      | Ok events ->
          checki "count" (List.length all_constructors) (List.length events);
          List.iter2
            (fun a b -> checkb "event preserved" true (E.equal a b))
            all_constructors events)

let test_parser_rejections () =
  let bad =
    [
      "";
      "{";
      "not json at all";
      "{\"ev\":\"transmit\",\"round\":1}" ^ "trailing";
      "{\"ev\":\"transmit\",\"round\":1.5,\"node\":2}";
      "{\"ev\":\"transmit\",\"round\":{},\"node\":2}";
      "{\"ev\":\"no_such_event\",\"round\":1}";
      "{\"ev\":\"transmit\",\"round\":1}";
      "{\"ev\":\"mark\",\"round\":1,\"node\":0,\"label\":\"unterminated}";
      "[1,2,3]";
    ]
  in
  List.iter
    (fun line ->
      match E.of_json_line line with
      | Error _ -> ()
      | Ok e -> Alcotest.failf "accepted %S as %s" line (E.kind e))
    bad

(* --- metrics --- *)

let test_metrics_registry () =
  let m = Metrics.create () in
  let c = Metrics.counter m "c" in
  Metrics.incr c;
  Metrics.incr ~by:4 c;
  checki "counter" 5 (Metrics.counter_value c);
  checki "counter handle is shared" 5 (Metrics.counter_value (Metrics.counter m "c"));
  let g = Metrics.gauge m "g" in
  Metrics.set g 2.5;
  checkb "gauge" true (Metrics.gauge_value g = 2.5);
  Alcotest.check_raises "name collision"
    (Invalid_argument "Metrics.gauge: \"c\" is not a gauge") (fun () ->
      ignore (Metrics.gauge m "c"));
  let h = Metrics.histogram m "h" in
  checkb "empty histogram" true (Metrics.summary h = None);
  List.iter (fun v -> Metrics.observe ~node:(v mod 2) h (float_of_int v)) [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ];
  (match Metrics.summary h with
  | None -> Alcotest.fail "summary empty"
  | Some s ->
      checki "count" 10 s.Metrics.count;
      checkb "min" true (s.Metrics.min = 1.0);
      checkb "max" true (s.Metrics.max = 10.0);
      checkb "mean" true (s.Metrics.mean = 5.5);
      checkb "p50 nearest-rank" true (s.Metrics.p50 = 5.0);
      checkb "p99 nearest-rank" true (s.Metrics.p99 = 10.0));
  (match Metrics.by_node h with
  | [ (0, s0); (1, s1) ] ->
      checki "node 0 samples" 5 s0.Metrics.count;
      checkb "node 0 evens" true (s0.Metrics.sum = 30.0);
      checki "node 1 samples" 5 s1.Metrics.count;
      checkb "node 1 odds" true (s1.Metrics.sum = 25.0)
  | other -> Alcotest.failf "by_node returned %d groups" (List.length other));
  let snap = Metrics.snapshot ~label:"t" m in
  checkb "snapshot label" true (snap.Metrics.label = "t");
  checkb "snapshot counters" true (List.mem_assoc "c" snap.Metrics.counters);
  let json = Metrics.snapshot_to_json snap in
  checkb "snapshot json is one line" true
    (String.length json > 0 && String.index_opt json '\n' = None);
  checkb "snapshot json mentions histogram" true (contains json "\"h\"")

let test_bounded_histogram_mode () =
  let m = Metrics.create () in
  let h = Metrics.bounded_histogram m "b" in
  checkb "empty bounded histogram" true (Metrics.summary h = None);
  checkb "handle is shared" true (Metrics.bounded_histogram m "b" == h);
  List.iter
    (fun v -> Metrics.observe ~node:(v mod 2) h (float_of_int v))
    [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ];
  (match Metrics.summary h with
  | None -> Alcotest.fail "summary empty"
  | Some s ->
      (* count/sum/min/max/mean are exact in bounded mode *)
      checki "count" 10 s.Metrics.count;
      checkb "sum" true (s.Metrics.sum = 55.0);
      checkb "min" true (s.Metrics.min = 1.0);
      checkb "max" true (s.Metrics.max = 10.0);
      checkb "mean" true (s.Metrics.mean = 5.5);
      (* percentiles carry the estimator's ~2.2% relative error *)
      checkb "p50 near 5" true (Float.abs (s.Metrics.p50 -. 5.0) <= 1.0);
      checkb "p99 near max" true (Float.abs (s.Metrics.p99 -. 10.0) <= 1.0));
  checkb "no per-node attribution in bounded mode" true
    (Metrics.by_node h = []);
  (* a bounded name cannot be re-opened raw, and vice versa *)
  Alcotest.check_raises "raw reopen of bounded name"
    (Invalid_argument "Metrics.histogram: \"b\" is a bounded histogram")
    (fun () -> ignore (Metrics.histogram m "b"));
  let _raw = Metrics.histogram m "r" in
  Alcotest.check_raises "bounded reopen of raw name"
    (Invalid_argument "Metrics.bounded_histogram: \"r\" is a raw histogram")
    (fun () -> ignore (Metrics.bounded_histogram m "r"));
  (* bounded histograms appear in snapshots like raw ones *)
  let snap = Metrics.snapshot ~label:"t" m in
  checkb "snapshot carries bounded histogram" true
    (List.mem_assoc "b" snap.Metrics.histograms)

let test_bounded_histogram_fixed_memory () =
  (* The regression the serving engine depends on: a million
     observations must not grow the estimator.  The reachable-word
     budget is the fixed bin array (~1.1k bins at default resolution)
     plus small change — far below the 10^6 boxed floats raw mode
     would hold. *)
  let m = Metrics.create () in
  let h = Metrics.bounded_histogram m "soak" in
  Metrics.observe h 1.0;
  let words_before = Obj.reachable_words (Obj.repr h) in
  for i = 1 to 1_000_000 do
    Metrics.observe h (float_of_int ((i land 0xFFFF) + 1))
  done;
  let words_after = Obj.reachable_words (Obj.repr h) in
  checki "memory did not grow with observations" words_before words_after;
  checkb "and the budget is a few KB" true (words_after < 4_096);
  (match Metrics.summary h with
  | Some s -> checki "all observations counted" 1_000_001 s.Metrics.count
  | None -> Alcotest.fail "summary empty after soak")

let test_metrics_artifact () =
  let m = Metrics.create () in
  Metrics.incr (Metrics.counter m "evil\"name");
  let snap = Metrics.snapshot ~label:"only" m in
  let path = Filename.temp_file "obs_metrics" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Metrics.write_json ~path ~git_rev:"rev\"with\\quote" [ snap ];
      let ic = open_in_bin path in
      let len = in_channel_length ic in
      let body = really_input_string ic len in
      close_in ic;
      checkb "newline-terminated" true (len > 0 && body.[len - 1] = '\n');
      checkb "git_rev escaped" true (contains body "rev\\\"with\\\\quote");
      checkb "counter name escaped" true (contains body "evil\\\"name"))

(* --- auditor unit cases --- *)

let round_ends a ~from ~upto =
  for r = from to upto do
    Audit.observe a
      (E.Round_end { round = r; transmitters = 0; deliveries = 0; collisions = 0 })
  done

let count_kind violations pred =
  List.length (List.filter (fun v -> pred v.Audit.kind) violations)

let test_audit_ack_ok () =
  let a = Audit.create ~t_ack:5 () in
  Audit.observe a (E.Bcast { round = 0; node = 1; uid = 0 });
  round_ends a ~from:0 ~upto:3;
  Audit.observe a (E.Ack { round = 4; node = 1; uid = 0; latency = 4 });
  round_ends a ~from:4 ~upto:6;
  Audit.finish a;
  checki "no violations" 0 (List.length (Audit.violations a));
  let r = Audit.report a in
  checki "ack counted" 1 r.Audit.ack_count;
  checki "latency recorded" 4 r.Audit.max_ack_latency

let test_audit_late_ack () =
  let a = Audit.create ~t_ack:5 () in
  Audit.observe a (E.Bcast { round = 0; node = 1; uid = 0 });
  round_ends a ~from:0 ~upto:5;
  (* latency t_ack + 1: too late, but not yet flagged missing online *)
  Audit.observe a (E.Ack { round = 6; node = 1; uid = 0; latency = 6 });
  round_ends a ~from:6 ~upto:6;
  Audit.finish a;
  let v = Audit.violations a in
  checki "one violation" 1 (List.length v);
  checki "late kind" 1
    (count_kind v (function Audit.Late_ack { latency = 6 } -> true | _ -> false))

let test_audit_missing_then_ack () =
  (* Overdue at a Round_end: flagged missing online; the eventual ack
     records a latency but no second violation for the same bcast. *)
  let a = Audit.create ~t_ack:5 () in
  Audit.observe a (E.Bcast { round = 0; node = 1; uid = 0 });
  round_ends a ~from:0 ~upto:7;
  Audit.observe a (E.Ack { round = 8; node = 1; uid = 0; latency = 8 });
  round_ends a ~from:8 ~upto:8;
  Audit.finish a;
  let v = Audit.violations a in
  checki "exactly one violation" 1 (List.length v);
  checki "missing kind" 1
    (count_kind v (function
      | Audit.Missing_ack { bcast_round = 0 } -> true
      | _ -> false));
  let r = Audit.report a in
  checki "ack still counted" 1 r.Audit.ack_count;
  checki "latency still recorded" 8 r.Audit.max_ack_latency

let test_audit_missing_at_finish () =
  let a = Audit.create ~t_ack:5 () in
  Audit.observe a (E.Bcast { round = 2; node = 3; uid = 1 });
  round_ends a ~from:2 ~upto:7;
  (* rounds observed = 8, 8 - 2 = 6 > 5: missing only via the end rule *)
  Audit.finish a;
  let v = Audit.violations a in
  checki "flagged at finish" 1
    (count_kind v (function Audit.Missing_ack _ -> true | _ -> false));
  (* within the window: a fresh auditor over fewer rounds stays clean *)
  let b = Audit.create ~t_ack:5 () in
  Audit.observe b (E.Bcast { round = 2; node = 3; uid = 1 });
  round_ends b ~from:2 ~upto:6;
  Audit.finish b;
  checki "not yet overdue" 0 (List.length (Audit.violations b))

let test_audit_delta_breach () =
  let g' = Dualgraph.Graph.create ~n:3 ~edges:[ (0, 1) ] in
  let a = Audit.create ~t_ack:100 ~delta_bound:1 ~g' () in
  Audit.observe a (E.Phase_start { round = 0; phase = 0; preamble = true });
  Audit.observe a (E.Seed_commit { round = 1; node = 0; owner = 0 });
  Audit.observe a (E.Seed_commit { round = 1; node = 1; owner = 1 });
  Audit.observe a (E.Seed_commit { round = 1; node = 2; owner = 1 });
  round_ends a ~from:0 ~upto:3;
  Audit.observe a (E.Phase_start { round = 4; phase = 1; preamble = true });
  Audit.finish a;
  let v = Audit.violations a in
  (* nodes 0 and 1 each see two owners; node 2 sees one *)
  checki "two breaches" 2
    (count_kind v (function
      | Audit.Delta_breach { owners = 2; bound = 1 } -> true
      | _ -> false));
  checkb "node 2 clean" true
    (List.for_all (fun viol -> viol.Audit.node <> 2) v)

let test_audit_progress () =
  let g = Dualgraph.Graph.create ~n:2 ~edges:[ (0, 1) ] in
  (* Node 1 broadcasts through the whole phase and is never acked; node 0
     has the opportunity.  Without a Progress event it must be flagged,
     with one it must not. *)
  let run_phase ~with_progress =
    let a = Audit.create ~t_ack:1000 ~t_prog:4 ~g () in
    Audit.observe a (E.Phase_start { round = 0; phase = 0; preamble = true });
    Audit.observe a (E.Bcast { round = 0; node = 1; uid = 0 });
    if with_progress then
      Audit.observe a (E.Progress { round = 2; node = 0; latency = 2 });
    round_ends a ~from:0 ~upto:2;
    (* the ack lands in the phase's last round: node 1 stays active
       through it (so the phase-0 obligation stands) but carries no
       obligation into phase 1 *)
    Audit.observe a (E.Ack { round = 3; node = 1; uid = 0; latency = 3 });
    round_ends a ~from:3 ~upto:3;
    Audit.observe a (E.Phase_start { round = 4; phase = 1; preamble = true });
    round_ends a ~from:4 ~upto:4;
    Audit.finish a;
    Audit.violations a
  in
  let missed = run_phase ~with_progress:false in
  checki "miss flagged once" 1
    (count_kind missed (function
      | Audit.Progress_miss { phase = 0 } -> true
      | _ -> false));
  checkb "flagged for the receiver" true
    (List.for_all (fun v -> v.Audit.node = 0) missed);
  (* node 1 is the active sender: its own neighbor (node 0) is not
     active, so node 1 carries no obligation *)
  let ok = run_phase ~with_progress:true in
  checki "no miss with progress" 0 (List.length ok)

let test_audit_partial_phase_unjudged () =
  (* Phase 1 runs 2 of its 4 rounds before the stream ends: it carries no
     progress obligation, so only phase 0's miss stands. *)
  let g = Dualgraph.Graph.create ~n:2 ~edges:[ (0, 1) ] in
  let a = Audit.create ~t_ack:1000 ~t_prog:4 ~g () in
  Audit.observe a (E.Phase_start { round = 0; phase = 0; preamble = true });
  Audit.observe a (E.Bcast { round = 0; node = 1; uid = 0 });
  round_ends a ~from:0 ~upto:3;
  Audit.observe a (E.Phase_start { round = 4; phase = 1; preamble = true });
  round_ends a ~from:4 ~upto:5;
  Audit.finish a;
  match Audit.violations a with
  | [ { Audit.kind = Audit.Progress_miss { phase = 0 }; node = 0; _ } ] -> ()
  | vs -> Alcotest.failf "expected only the phase-0 miss, got %d violations" (List.length vs)

(* --- auditor: the abstract MAC layer contract (§5) --- *)

(* The contract is LB's ack and validity conditions plus receive
   uniqueness, checked on the observation API against the dual's G'. *)
let mac_audit ?(t_ack = 100) dual = Audit.create ~g':(Dual.g' dual) ~t_ack ()

let finished a =
  Audit.finish a;
  Audit.report a

let test_audit_mac_clean () =
  let a = mac_audit (Geo.pair ()) in
  Audit.bcast a ~round:0 ~node:0 ~uid:0;
  round_ends a ~from:0 ~upto:4;
  Audit.recv a ~round:5 ~node:1 ~src:0 ~uid:0;
  round_ends a ~from:5 ~upto:9;
  checki "latency" 10 (Audit.ack a ~round:10 ~node:0 ~uid:0);
  round_ends a ~from:10 ~upto:19;
  let r = finished a in
  checki "validity" 0 r.Audit.validity_violations;
  checki "acks" 1 r.Audit.ack_count;
  checki "max latency" 10 r.Audit.max_ack_latency;
  checki "no violations" 0 (List.length (Audit.violations a))

(* Before any bcast a node's current uid is none, so even uid 0 does not
   match; after one, only its own uid does. *)
let test_audit_ack_without_bcast () =
  let a = mac_audit (Geo.pair ()) in
  round_ends a ~from:0 ~upto:2;
  ignore (Audit.ack a ~round:3 ~node:0 ~uid:0 : int);
  round_ends a ~from:3 ~upto:3;
  Audit.bcast a ~round:4 ~node:1 ~uid:1;
  ignore (Audit.ack a ~round:4 ~node:1 ~uid:0 : int);
  round_ends a ~from:4 ~upto:9;
  checki "two acks of no current bcast" 2 (finished a).Audit.validity_violations

let test_audit_mac_late_and_missing () =
  let a = mac_audit ~t_ack:10 (Geo.pair ()) in
  Audit.bcast a ~round:0 ~node:0 ~uid:0;
  Audit.bcast a ~round:0 ~node:1 ~uid:0;
  round_ends a ~from:0 ~upto:24;
  ignore (Audit.ack a ~round:25 ~node:0 ~uid:0 : int);
  round_ends a ~from:25 ~upto:49;
  let r = finished a in
  checki "late" 1 r.Audit.late_ack_count;
  checki "missing" 1 r.Audit.missing_ack_count;
  checki "validity" 0 r.Audit.validity_violations

let test_audit_recv_no_bcast () =
  let a = mac_audit (Geo.pair ()) in
  round_ends a ~from:0 ~upto:1;
  Audit.recv a ~round:2 ~node:1 ~src:0 ~uid:0;
  round_ends a ~from:2 ~upto:9;
  checki "invalid" 1 (finished a).Audit.validity_violations

let test_audit_recv_not_neighbour () =
  (* line 0-1-2 with r = 1: nodes 0 and 2 are not G'-neighbours *)
  let a = mac_audit (Geo.line ~n:3 ~spacing:0.9 ~r:1.0 ()) in
  Audit.bcast a ~round:0 ~node:0 ~uid:0;
  round_ends a ~from:0 ~upto:1;
  Audit.recv a ~round:2 ~node:2 ~src:0 ~uid:0;
  round_ends a ~from:2 ~upto:9;
  checki "invalid" 1 (finished a).Audit.validity_violations

let test_audit_recv_in_ack_round () =
  (* the ack is observed before the neighbour's recv of the same round *)
  let a = mac_audit (Geo.pair ()) in
  Audit.bcast a ~round:0 ~node:0 ~uid:0;
  round_ends a ~from:0 ~upto:6;
  ignore (Audit.ack a ~round:7 ~node:0 ~uid:0 : int);
  Audit.recv a ~round:7 ~node:1 ~src:0 ~uid:0;
  round_ends a ~from:7 ~upto:9;
  checki "valid" 0 (finished a).Audit.validity_violations

let test_audit_duplicate_recv () =
  let a = mac_audit (Geo.pair ()) in
  Audit.bcast a ~round:0 ~node:0 ~uid:0;
  round_ends a ~from:0 ~upto:1;
  Audit.recv a ~round:2 ~node:1 ~src:0 ~uid:0;
  round_ends a ~from:2 ~upto:2;
  Audit.recv a ~round:3 ~node:1 ~src:0 ~uid:0;
  round_ends a ~from:3 ~upto:9;
  checki "duplicate" 1 (finished a).Audit.validity_violations

(* A restart brings back a process that never received the message, so
   it may receive it anew; from then on it is a survivor again. *)
let test_audit_revived_receiver () =
  let a = mac_audit (Geo.pair ()) in
  Audit.bcast a ~round:0 ~node:0 ~uid:0;
  round_ends a ~from:0 ~upto:1;
  Audit.recv a ~round:2 ~node:1 ~src:0 ~uid:0;
  round_ends a ~from:2 ~upto:2;
  Audit.crash a ~round:3 ~node:1;
  round_ends a ~from:3 ~upto:4;
  Audit.restart a ~round:5 ~node:1;
  round_ends a ~from:5 ~upto:5;
  Audit.recv a ~round:6 ~node:1 ~src:0 ~uid:0;
  round_ends a ~from:6 ~upto:6;
  checki "revived receiver hears it anew" 0 (Audit.report a).Audit.validity_violations;
  Audit.recv a ~round:7 ~node:1 ~src:0 ~uid:0;
  round_ends a ~from:7 ~upto:9;
  checki "then a repeat counts" 1 (finished a).Audit.validity_violations

let test_audit_live_mac () =
  let dual = Geo.clique 4 in
  let params = Params.of_dual ~tack_phases:2 ~eps1:0.2 dual in
  let monitor = L.Lb_spec.monitor ~dual ~params () in
  let recvs = ref 0 in
  let callbacks =
    { L.Mac.no_callbacks with on_recv = (fun ~node:_ ~round:_ _ -> incr recvs) }
  in
  let mac = L.Mac.create ~callbacks ~params ~rng:(Rng.of_int 8) ~dual () in
  for node = 0 to 3 do
    checkb "request accepted" true (L.Mac.request mac ~node ~tag:0)
  done;
  let (_ : int) =
    L.Mac.run mac ~observer:(L.Lb_spec.observe monitor)
      ~scheduler:(Sch.bernoulli ~seed:8 ~p:0.5)
      ~rounds:(4 * params.Params.phase_len)
  in
  let r = L.Lb_spec.finish monitor in
  checki "all four acked" 4 r.L.Lb_spec.ack_count;
  checki "validity" 0 r.L.Lb_spec.validity_violations;
  checki "late" 0 r.L.Lb_spec.late_ack_count;
  checki "missing" 0 r.L.Lb_spec.missing_ack_count;
  checkb "saw receptions" true (!recvs > 0)

(* --- QCheck: online auditor == offline reference scan --- *)

(* One scripted ack history: per node at most one bcast, acked or not.
   The offline rule (straight from the LB spec): flag node u iff
   - acked and ack_round - bcast_round > t_ack, or
   - never acked and rounds_observed - bcast_round > t_ack. *)
let audit_equivalence_property =
  let open QCheck in
  let scenario =
    let node_plan =
      triple (int_bound 6) (int_bound 12) (option (int_bound 10))
    in
    pair (list_of_size Gen.(1 -- 8) node_plan) (int_bound 6)
  in
  Test.make ~count:300 ~name:"auditor flags exactly the offline deadline misses"
    scenario
    (fun (plans, t_ack) ->
      (* materialize: node i bcasts at round b; delay d means ack at b+1+d *)
      let plans =
        List.mapi
          (fun i (b, d_extra, ack) ->
            let bcast_round = b in
            let ack_round =
              Option.map (fun d -> bcast_round + 1 + d + (d_extra mod 3)) ack
            in
            (i, bcast_round, ack_round))
          plans
      in
      let horizon =
        List.fold_left
          (fun acc (_, b, a) -> max acc (max b (Option.value a ~default:0)))
          0 plans
        + 1
      in
      let a = Audit.create ~t_ack () in
      for r = 0 to horizon - 1 do
        List.iter
          (fun (node, b, _) ->
            if b = r then Audit.observe a (E.Bcast { round = r; node; uid = 0 }))
          plans;
        List.iter
          (fun (node, b, ack) ->
            match ack with
            | Some ar when ar = r ->
                Audit.observe a
                  (E.Ack { round = r; node; uid = 0; latency = r - b })
            | _ -> ())
          plans;
        Audit.observe a
          (E.Round_end
             { round = r; transmitters = 0; deliveries = 0; collisions = 0 })
      done;
      Audit.finish a;
      let flagged_online =
        List.sort_uniq compare
          (List.filter_map
             (fun v ->
               match v.Audit.kind with
               | Audit.Late_ack _ | Audit.Missing_ack _ -> Some v.Audit.node
               | _ -> None)
             (Audit.violations a))
      in
      let flagged_offline =
        List.sort_uniq compare
          (List.filter_map
             (fun (node, b, ack) ->
               match ack with
               | Some ar -> if ar - b > t_ack then Some node else None
               | None -> if horizon - b > t_ack then Some node else None)
             plans)
      in
      if flagged_online <> flagged_offline then
        QCheck.Test.fail_reportf
          "t_ack=%d horizon=%d online=[%s] offline=[%s]" t_ack horizon
          (String.concat ";" (List.map string_of_int flagged_online))
          (String.concat ";" (List.map string_of_int flagged_offline))
      else true)

(* --- engine integration --- *)

(* A deterministic random configuration built twice from the same seed
   must yield bit-identical traces with and without a sink attached, and
   identical to the reference resolver: the disabled path is the PR 2
   engine, and the enabled path must not perturb execution either. *)
let build_config seed =
  let rng = Rng.of_int seed in
  let n = 3 + Rng.int rng 20 in
  let dual =
    Geo.random_field ~rng ~n ~width:3.0 ~height:3.0 ~r:1.5 ~gray_g':0.5 ()
  in
  let nodes =
    Array.init n (fun src ->
        let node_rng = Rng.split rng in
        {
          P.decide =
            (fun ~round:_ _ ->
              if Rng.bernoulli node_rng 0.3 then
                P.Transmit (M.Data (M.payload ~src ~uid:0 ()))
              else P.Listen);
          absorb = (fun ~round:_ d -> match d with Some _ -> [ () ] | None -> []);
        })
  in
  (dual, nodes)

let trace_fingerprint trace =
  let buf = Buffer.create 256 in
  Trace.iter
    (fun record ->
      Buffer.add_string buf (string_of_int record.Trace.round);
      Array.iter
        (fun a ->
          Buffer.add_char buf (match a with P.Transmit _ -> 'T' | P.Listen -> 'L'))
        record.Trace.actions;
      Array.iter
        (fun d -> Buffer.add_char buf (match d with Some _ -> '1' | None -> '0'))
        record.Trace.delivered)
    trace;
  Buffer.contents buf

let test_sink_does_not_perturb_traces () =
  List.iter
    (fun seed ->
      let run ~variant =
        let dual, nodes = build_config seed in
        let scheduler = Sch.bernoulli ~seed ~p:0.4 in
        let env = Radiosim.Env.null ~name:"obs" () in
        let trace, observer = Trace.recorder () in
        (match variant with
        | `Plain ->
            ignore
              (Engine.run ~observer ~dual ~scheduler ~nodes ~env ~rounds:25 ())
        | `Sink ->
            let sink = Sink.create ~capacity:16 () in
            ignore
              (Engine.run ~observer ~sink ~dual ~scheduler ~nodes ~env
                 ~rounds:25 ())
        | `Reference ->
            ignore
              (Oracle.run_reference ~observer ~dual ~scheduler ~nodes ~env
                 ~rounds:25 ()));
        trace_fingerprint trace
      in
      let plain = run ~variant:`Plain in
      checkb "sink-enabled trace identical" true (run ~variant:`Sink = plain);
      checkb "reference trace identical" true (run ~variant:`Reference = plain))
    [ 11; 23; 47 ]

let test_engine_round_end_counts () =
  (* Round_end aggregates must equal the per-event counts inside the
     round's bracket. *)
  let dual, nodes = build_config 5 in
  let sink = Sink.create ~capacity:65536 () in
  let (_ : int) =
    Engine.run ~sink ~dual
      ~scheduler:(Sch.bernoulli ~seed:5 ~p:0.4)
      ~nodes
      ~env:(Radiosim.Env.null ~name:"obs" ())
      ~rounds:40 ()
  in
  let tx = ref 0 and dl = ref 0 and cl = ref 0 and rounds = ref 0 in
  Sink.iter sink (fun e ->
      match e with
      | E.Transmit _ -> incr tx
      | E.Deliver _ -> incr dl
      | E.Collision _ -> incr cl
      | E.Round_end { transmitters; deliveries; collisions; _ } ->
          incr rounds;
          checki "transmitters agree" !tx transmitters;
          checki "deliveries agree" !dl deliveries;
          checki "collisions agree" !cl collisions;
          tx := 0;
          dl := 0;
          cl := 0
      | _ -> ());
  checki "all rounds bracketed" 40 !rounds

(* --- service integration: glue + auditor vs Lb_spec --- *)

let test_service_obs_matches_spec () =
  let dual = Geo.random_field ~rng:(Rng.of_int 99) ~n:24 ~width:3.0 ~height:3.0 ~r:1.5 ~gray_g':0.5 () in
  let params = Params.of_dual ~tack_phases:1 ~eps1:0.25 dual in
  let phases = 3 in
  let capacity = phases * params.Params.phase_len * (2 * Dual.n dual + 8) in
  let sink = Sink.create ~capacity () in
  let metrics = Metrics.create () in
  let auditor = L.Lb_obs.auditor ~dual ~params () in
  Sink.on_event sink (Audit.observe auditor);
  let outcome =
    L.Service.run ~sink ~metrics ~dual ~params ~senders:[ 0; 5 ] ~phases ~seed:31 ()
  in
  Audit.finish auditor;
  let report = outcome.L.Service.report in
  let v = Audit.violations auditor in
  checkb "auditor report = spec report" true (Audit.report auditor = report);
  checki "deadline misses agree"
    (report.L.Lb_spec.late_ack_count + report.L.Lb_spec.missing_ack_count)
    (count_kind v (function
      | Audit.Late_ack _ | Audit.Missing_ack _ -> true
      | _ -> false));
  checki "progress misses agree" report.L.Lb_spec.progress_failures
    (count_kind v (function Audit.Progress_miss _ -> true | _ -> false));
  checki "one snapshot per phase" phases
    (List.length outcome.L.Service.obs_snapshots);
  (* the sink-enabled service outcome equals the plain one *)
  let plain =
    L.Service.run ~dual ~params ~senders:[ 0; 5 ] ~phases ~seed:31 ()
  in
  checkb "identical report with and without sink" true
    (plain.L.Service.report = report);
  (* bcast/ack counters line up with the spec report *)
  (match Metrics.summary (Metrics.histogram metrics "lb.ack_latency") with
  | Some s -> checki "ack histogram count" report.L.Lb_spec.ack_count s.Metrics.count
  | None -> checki "ack histogram empty means no acks" 0 report.L.Lb_spec.ack_count);
  checkb "no events dropped" true (Sink.dropped sink = 0)

(* --- string codec: escape must be exactly invertible --- *)

module J = Obs.Json

let parse_single_string line =
  match J.parse_flat line with
  | Ok [ ("k", J.Str s) ] -> Ok s
  | Ok fields -> Error (Printf.sprintf "unexpected fields (%d)" (List.length fields))
  | Error e -> Error e

let roundtrip_string s =
  parse_single_string (Printf.sprintf "{\"k\":\"%s\"}" (J.escape s))

let test_codec_all_bytes () =
  (* Every byte, alone and in context, survives escape → parse. *)
  for b = 0 to 255 do
    let probe = Printf.sprintf "a%cb" (Char.chr b) in
    match roundtrip_string probe with
    | Ok s ->
        checkb (Printf.sprintf "byte 0x%02x round-trips" b) true
          (String.equal s probe)
    | Error e -> Alcotest.failf "byte 0x%02x: %s" b e
  done

let test_codec_u_escape_exactness () =
  (* The \uXXXX parser must accept exactly what escape emits — four hex
     digits, either case — and nothing looser.  int_of_string-style
     leniency (underscores, 0x prefixes) silently changed bytes before
     re-emission, which is what this pins down. *)
  let accepted =
    [ ("{\"k\":\"\\u0041\"}", "A"); ("{\"k\":\"\\u000b\"}", "\011");
      ("{\"k\":\"\\u000B\"}", "\011"); ("{\"k\":\"\\u007F\"}", "\127");
      ("{\"k\":\"\\b\"}", "\b"); ("{\"k\":\"\\f\"}", "\012") ]
  in
  List.iter
    (fun (line, want) ->
      match parse_single_string line with
      | Ok s -> checkb (Printf.sprintf "%s decodes" line) true (String.equal s want)
      | Error e -> Alcotest.failf "%s rejected: %s" line e)
    accepted;
  let rejected =
    [ "{\"k\":\"\\u0_41\"}";        (* underscore leniency *)
      "{\"k\":\"\\u1_23\"}";
      "{\"k\":\"\\u0x12\"}";        (* radix-prefix leniency *)
      "{\"k\":\"\\u004\"}";         (* too short *)
      "{\"k\":\"\\u004g\"}";        (* non-hex digit *)
      "{\"k\":\"\\u0080\"}";        (* above ASCII: raw bytes only *)
      "{\"k\":\"\\uFFFF\"}" ]
  in
  List.iter
    (fun line ->
      match parse_single_string line with
      | Ok s -> Alcotest.failf "%s wrongly accepted as %S" line s
      | Error _ -> ())
    rejected

let codec_roundtrip_property =
  QCheck.Test.make ~name:"json string codec: escape/parse_flat exact inverse"
    ~count:500
    QCheck.(string_gen_of_size Gen.(0 -- 40) Gen.char)
    (fun s ->
      match roundtrip_string s with
      | Ok s' -> String.equal s s'
      | Error e -> QCheck.Test.fail_reportf "parse failed on %S: %s" s e)

let qcheck_cases = [ audit_equivalence_property; codec_roundtrip_property ]

let suite =
  [
    Alcotest.test_case "ring wraparound" `Quick test_ring_wraparound;
    Alcotest.test_case "streaming consumers" `Quick test_consumers_see_everything;
    Alcotest.test_case "json roundtrip per constructor" `Quick
      test_json_roundtrip_per_constructor;
    Alcotest.test_case "jsonl file roundtrip" `Quick test_jsonl_file_roundtrip;
    Alcotest.test_case "parser rejects malformed lines" `Quick
      test_parser_rejections;
    Alcotest.test_case "string codec: all 256 bytes" `Quick test_codec_all_bytes;
    Alcotest.test_case "string codec: \\u escape exactness" `Quick
      test_codec_u_escape_exactness;
    Alcotest.test_case "metrics registry" `Quick test_metrics_registry;
    Alcotest.test_case "bounded histogram mode" `Quick
      test_bounded_histogram_mode;
    Alcotest.test_case "bounded histogram fixed memory" `Quick
      test_bounded_histogram_fixed_memory;
    Alcotest.test_case "metrics artifact escaping" `Quick test_metrics_artifact;
    Alcotest.test_case "audit: timely ack is clean" `Quick test_audit_ack_ok;
    Alcotest.test_case "audit: late ack" `Quick test_audit_late_ack;
    Alcotest.test_case "audit: missing then late ack" `Quick
      test_audit_missing_then_ack;
    Alcotest.test_case "audit: missing at finish" `Quick
      test_audit_missing_at_finish;
    Alcotest.test_case "audit: delta breach" `Quick test_audit_delta_breach;
    Alcotest.test_case "audit: progress obligations" `Quick test_audit_progress;
    Alcotest.test_case "audit: partial trailing phase unjudged" `Quick
      test_audit_partial_phase_unjudged;
    Alcotest.test_case "audit: MAC clean sequence" `Quick test_audit_mac_clean;
    Alcotest.test_case "audit: ack of no current bcast" `Quick
      test_audit_ack_without_bcast;
    Alcotest.test_case "audit: MAC late and missing acks" `Quick
      test_audit_mac_late_and_missing;
    Alcotest.test_case "audit: recv with no active bcast" `Quick
      test_audit_recv_no_bcast;
    Alcotest.test_case "audit: recv from a non-G'-neighbour" `Quick
      test_audit_recv_not_neighbour;
    Alcotest.test_case "audit: recv in its source's ack round" `Quick
      test_audit_recv_in_ack_round;
    Alcotest.test_case "audit: duplicate recv" `Quick test_audit_duplicate_recv;
    Alcotest.test_case "audit: revived receiver may recv again" `Quick
      test_audit_revived_receiver;
    Alcotest.test_case "audit: live MAC run meets the MAC contract" `Quick
      test_audit_live_mac;
    Alcotest.test_case "engine: sink does not perturb traces" `Quick
      test_sink_does_not_perturb_traces;
    Alcotest.test_case "engine: round_end counts" `Quick
      test_engine_round_end_counts;
    Alcotest.test_case "service: auditor matches Lb_spec" `Quick
      test_service_obs_matches_spec;
  ]
  @ List.map QCheck_alcotest.to_alcotest qcheck_cases
