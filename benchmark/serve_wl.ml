(* serve-sim: the Serve acceptance load.  Serve.Sim drives Serve.Core
   over a fixed-latency ring channel at 2x overload, so the serving
   core and the arrival generator do all the work — no engine, no
   LBAlg — and the drop and expiry paths run hot. *)

open Core
open Benchkit
module Serve = Macapps.Serve
module Workload = Macapps.Workload

let n = 64

(* Flooding capacity of the ring (degree 8, 2-round acks) is about 0.5
   completed messages per round, so Poisson rate 1.0 is 2x overload. *)
let config =
  Serve.config ~queue_cap:16 ~max_inflight:4096 ~ttl:500 ~policy:Serve.Drop_tail
    ~ack_deadline:12 ()

let create_sim () = Serve.Sim.create ~config ~n ~degree:8 ~relay_delay:1 ~ack_delay:2 ()

let create_workload seed = Workload.create ~process:(Poisson { rate = 1.0 }) ~n ~seed ()

(* Reports compare on every field except the allocation probe, which is
   a measurement rather than an output. *)
let comparable (r : Serve.report) = { r with minor_words_per_round = 0.0 }

let digest (r : Serve.report) =
  Printf.sprintf
    "arrivals=%d admitted=%d rejected=%d completed=%d expired=%d inflight=%d relays=%d \
     drops=%d stale=%d acks=%d misses=%d p50=%g p99=%g ack_p50=%g ack_p99=%g max_queue=%d \
     mean_queue=%.9g"
    r.arrivals r.admitted r.rejected r.completed r.expired r.inflight r.relays r.relay_drops
    r.stale_skips r.acks r.ack_misses r.delivery_p50 r.delivery_p99 r.ack_p50 r.ack_p99
    r.max_queue_depth r.mean_queue_depth

(* Every k-th step is timed in the traced pass; timing every step cost
   about 16% of the run, one in eight stays well under 5%. *)
let sample_every = 8

let serve_sim (ctx : Meter.ctx) =
  let check, checks = Meter.checker () in
  let rounds = if ctx.smoke then 20_000 else 1_050_000 in
  let arrival_seed = (Meter.sub_seeds ctx.seed 1).(0) in
  let prepare () = (create_workload arrival_seed, create_sim ()) in
  let _, setup_s, _ =
    Meter.setup ~min_seconds:(Meter.setup_seconds ctx) (fun () -> (prepare (), 0.0))
  in
  let node_rounds = float_of_int (n * rounds) in
  (* A rep takes about 6 s, so --seconds alone would allow two, and the
     median of two is their mean: one slow stretch of the host would
     move it.  Three reps outvote one; the traced pass needs only the
     comparison rep. *)
  let untraced =
    Meter.reps
      ~seconds:(if ctx.trace then 0.0 else ctx.seconds)
      ~min_reps:(if ctx.trace then 2 else 3)
      ~prepare
      ~run:(fun (workload, sim) -> Serve.Sim.run sim ~workload ~rounds ())
  in
  let base = (let r, _, _ = List.hd untraced in r) in
  check "the conservation audit is clean"
    (List.for_all (fun ((r : Serve.report), _, _) -> r.audit = []) untraced);
  check "the steady state allocates at most 8 minor words per round"
    (List.for_all (fun ((r : Serve.report), _, _) -> r.minor_words_per_round <= 8.0) untraced);
  check "messages complete" (base.completed > 0);
  if not ctx.smoke then check "at least 10^6 arrivals" (base.arrivals >= 1_000_000);
  check "the report is identical across reps"
    (List.for_all (fun (r, _, _) -> comparable r = comparable base) untraced);
  Meter.check_expected check ctx ~workload:"serve-sim" (digest base);
  let per_node_round = Meter.per_node_round ~node_rounds untraced in
  let untraced_ns = Stat.median per_node_round in
  let metrics =
    if not ctx.trace then
      Meter.headline ~node_rounds ~setup_s untraced
    else begin
      let one = Meter.one in
      let workload, sim = prepare () in
      let steps = Array.make ((rounds + sample_every - 1) / sample_every) 0.0 in
      Gc.full_major ();
      let t0 = Meter.now () in
      for r = 0 to rounds - 1 do
        if r mod sample_every = 0 then begin
          let a = Meter.now () in
          Serve.Sim.step sim ~workload;
          Array.unsafe_set steps (r / sample_every) (float_of_int (Meter.now () - a))
        end
        else Serve.Sim.step sim ~workload
      done;
      let traced_ns = float_of_int (Meter.now () - t0) /. node_rounds in
      let traced = Serve.Core.report (Serve.Sim.core sim) ~rounds in
      check "the traced run reproduces the report" (comparable traced = comparable base);
      (* the arrival generator alone, over every (node, round) pair *)
      let fresh = create_workload arrival_seed in
      let offered = ref 0 in
      let t0 = Meter.now () in
      for round = 0 to rounds - 1 do
        for node = 0 to n - 1 do
          offered := !offered + Workload.arrivals fresh ~node ~round
        done
      done;
      let arrivals_ns = float_of_int (Meter.now () - t0) /. node_rounds in
      check "the arrival replay offers the report's arrivals" (!offered = base.arrivals);
      let tail name p =
        if Stat.supports (Array.length steps) p then one name "ns" (Stat.percentile steps p)
        else { Meter.name; unit_ = "ns"; samples = [||] }
      in
      let count name v = one ("macapps.Serve." ^ name) "count" (float_of_int v) in
      let r = base in
      [
        tail "macapps.Serve.Sim.step_ns_p50" 50.0;
        tail "macapps.Serve.Sim.step_ns_p99" 99.0;
        tail "macapps.Serve.Sim.step_ns_p999" 99.9;
        one "macapps.Serve.Sim.step_samples" "count" (float_of_int (Array.length steps));
        one "macapps.Workload.arrivals_ns" "ns" arrivals_ns;
        one "macapps.Serve.Core.self_ns" "ns" (untraced_ns -. arrivals_ns);
        (* against the untraced rep just before, which shares its
           stretch of host speed *)
        one "trace_overhead_pct" "%"
          (Meter.pct ~over:traced_ns per_node_round.(Array.length per_node_round - 1));
        count "arrivals" r.arrivals;
        count "admitted" r.admitted;
        count "rejected" r.rejected;
        count "completed" r.completed;
        count "expired" r.expired;
        count "relays" r.relays;
        count "relay_drops" r.relay_drops;
        count "stale_skips" r.stale_skips;
        count "acks" r.acks;
        count "ack_misses" r.ack_misses;
        count "max_queue_depth" r.max_queue_depth;
        one "macapps.Serve.mean_queue_depth" "count" r.mean_queue_depth;
        one "macapps.Serve.completed_per_admitted" "ratio" (Meter.ratio r.completed r.admitted);
        one "macapps.Serve.relay_drops_per_relay" "ratio" (Meter.ratio r.relay_drops r.relays);
        one "macapps.Serve.stale_skips_per_relay" "ratio" (Meter.ratio r.stale_skips r.relays);
        one "macapps.Serve.goodput_per_round" "msgs/round" r.goodput;
        one "macapps.Serve.delivery_p50_rounds" "rounds" r.delivery_p50;
        one "macapps.Serve.delivery_p99_rounds" "rounds" r.delivery_p99;
      ]
    end
  in
  let checks = checks () in
  {
    Meter.params =
      [
        ("n", Jsonv.Num (float_of_int n));
        ("degree", Jsonv.Num 8.0);
        ("relay_delay", Jsonv.Num 1.0);
        ("ack_delay", Jsonv.Num 2.0);
        ("workload", Jsonv.Str "poisson:1.0");
        ("queue_cap", Jsonv.Num 16.0);
        ("max_inflight", Jsonv.Num 4096.0);
        ("ttl", Jsonv.Num 500.0);
        ("ack_deadline", Jsonv.Num 12.0);
        ("policy", Jsonv.Str "drop-tail");
        ("rounds", Jsonv.Num (float_of_int rounds));
      ];
    metrics;
    attempted = base.arrivals;
    failed = List.length base.audit + Meter.failed_checks checks;
    checks;
    spans = [];
  }
