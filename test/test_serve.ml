(* Tests for the open-loop serving engine (Macapps.Serve) and its
   arrival-process generator (Macapps.Workload): counter-mode
   determinism and order-independence of arrivals, exact message
   conservation under every backpressure policy, the policies' loss
   sites, ttl expiry, the metrics mirror, full-stack determinism and
   the zero-allocation steady state. *)

open Core

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

module Serve = Macapps.Serve
module Workload = Macapps.Workload
module Geo = Dualgraph.Geometric
module Params = Localcast.Params
module Sch = Radiosim.Scheduler
module Rng = Prng.Rng
module Metrics = Obs.Metrics

(* --- workload: parsing and validation --- *)

let processes : (string * Workload.process) list =
  [
    ("poisson", Poisson { rate = 0.8 });
    ("bursty", Bursty { rate = 0.8; on_mean = 10.0; off_mean = 30.0 });
    ("hotspot", Hotspot { rate = 0.8; hot_fraction = 0.2; hot_share = 0.8 });
    ("batch", Batch { sources = [ 0; 3; 3 ] });
  ]

let test_parse_roundtrip () =
  List.iter
    (fun (name, p) ->
      match Workload.parse (Workload.process_to_string p) with
      | Ok p' -> checkb (name ^ " round-trips") true (p = p')
      | Error e -> Alcotest.failf "%s did not round-trip: %s" name e)
    processes;
  (match Workload.parse "  POISSON:0.5 " with
  | Ok (Poisson { rate }) ->
      checkb "case/space insensitive" true (rate = 0.5)
  | _ -> Alcotest.fail "POISSON:0.5 should parse");
  List.iter
    (fun s ->
      checkb (Printf.sprintf "%S rejected" s) true
        (match Workload.parse s with Error _ -> true | Ok _ -> false))
    [
      ""; "poisson"; "poisson:x"; "poisson:1:2"; "bursty:1"; "bursty:1:0:5";
      "hotspot:1:2:0.5"; "uniform:1"; "poisson:-1"; "batch:"; "batch:x";
      "batch:-1"; "batch:0:1";
    ]

let test_create_validation () =
  let raises f = match f () with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  checkb "negative rate" true (raises (fun () ->
      Workload.create ~process:(Poisson { rate = -1.0 }) ~n:4 ~seed:0 ()));
  checkb "on_mean < 1" true (raises (fun () ->
      Workload.create
        ~process:(Bursty { rate = 1.0; on_mean = 0.5; off_mean = 5.0 })
        ~n:4 ~seed:0 ()));
  checkb "hot_fraction > 1" true (raises (fun () ->
      Workload.create
        ~process:(Hotspot { rate = 1.0; hot_fraction = 1.5; hot_share = 0.5 })
        ~n:4 ~seed:0 ()));
  checkb "n = 0" true (raises (fun () ->
      Workload.create ~process:(Poisson { rate = 1.0 }) ~n:0 ~seed:0 ()));
  (match Workload.parse "batch:4" with
  | Ok process ->
      checkb "batch source = n" true (raises (fun () ->
          Workload.create ~process ~n:4 ~seed:0 ()))
  | Error e -> Alcotest.failf "batch:4 should parse: %s" e);
  let w = Workload.create ~process:(Poisson { rate = 1.0 }) ~n:4 ~seed:0 () in
  checkb "node out of range" true
    (raises (fun () -> Workload.arrivals w ~node:4 ~round:0));
  checkb "negative round" true
    (raises (fun () -> Workload.arrivals w ~node:0 ~round:(-1)));
  ignore (Workload.arrivals w ~node:0 ~round:5);
  checkb "round going backwards" true
    (raises (fun () -> Workload.arrivals w ~node:0 ~round:3))

(* --- workload: determinism and order-independence ---

   This is the property the domain-parallel experiment harness leans
   on: a workload's arrival counts are a pure function of (process,
   seed, node, round), so tiles/domains that each own a node subset and
   query in their own order see bit-identical traffic. *)

let dense_counts ~order ~process ~seed ~n ~rounds =
  let w = Workload.create ~process ~n ~seed () in
  let a = Array.make_matrix n rounds 0 in
  (match order with
  | `Round_major ->
      for r = 0 to rounds - 1 do
        for v = 0 to n - 1 do
          a.(v).(r) <- Workload.arrivals w ~node:v ~round:r
        done
      done
  | `Node_major_rev ->
      for v = n - 1 downto 0 do
        for r = 0 to rounds - 1 do
          a.(v).(r) <- Workload.arrivals w ~node:v ~round:r
        done
      done);
  a

let qcheck_process =
  QCheck.Gen.(
    oneof
      [
        map (fun r -> Workload.Poisson { rate = float_of_int r /. 20.0 })
          (int_range 0 40);
        map3
          (fun r on off ->
            Workload.Bursty
              {
                rate = float_of_int r /. 20.0;
                on_mean = float_of_int on;
                off_mean = float_of_int off;
              })
          (int_range 1 40) (int_range 1 20) (int_range 1 40);
        map3
          (fun r f s ->
            Workload.Hotspot
              {
                rate = float_of_int r /. 20.0;
                hot_fraction = float_of_int f /. 10.0;
                hot_share = float_of_int s /. 10.0;
              })
          (int_range 1 40) (int_range 1 10) (int_range 0 10);
        map
          (fun sources -> Workload.Batch { sources })
          (list_size (int_range 1 6) (int_range 0 11));
      ])

(* A batch names its sources, so it needs more nodes than its largest. *)
let nodes_for process n =
  match process with
  | Workload.Batch { sources } -> max n (1 + List.fold_left max 0 sources)
  | Poisson _ | Bursty _ | Hotspot _ -> n

let qcheck_workload_cases =
  let open QCheck in
  let arb_process = make ~print:Workload.process_to_string qcheck_process in
  [
    Test.make ~name:"arrivals are query-order independent" ~count:60
      (triple arb_process (int_range 1 12) small_int)
      (fun (process, n, seed) ->
        let n = nodes_for process n in
        dense_counts ~order:`Round_major ~process ~seed ~n ~rounds:120
        = dense_counts ~order:`Node_major_rev ~process ~seed ~n ~rounds:120);
    Test.make ~name:"sparse round queries agree with dense" ~count:60
      (triple arb_process (int_range 1 12) small_int)
      (fun (process, n, seed) ->
        let n = nodes_for process n in
        let dense =
          dense_counts ~order:`Round_major ~process ~seed ~n ~rounds:120
        in
        let w = Workload.create ~process ~n ~seed () in
        let ok = ref true in
        for v = 0 to n - 1 do
          let r = ref 0 in
          while !r < 120 do
            if Workload.arrivals w ~node:v ~round:!r <> dense.(v).(!r) then
              ok := false;
            (* stride derived from the query itself, deterministic *)
            r := !r + 1 + ((v + !r) mod 7)
          done
        done;
        !ok);
  ]

let test_hotspot_skew () =
  let n = 50 in
  let process =
    Workload.Hotspot { rate = 2.0; hot_fraction = 0.1; hot_share = 0.9 }
  in
  let w = Workload.create ~process ~n ~seed:42 () in
  let hot_nodes = ref 0 in
  let hot_arr = ref 0 and cold_arr = ref 0 in
  for v = 0 to n - 1 do
    if Workload.hot w ~node:v then incr hot_nodes
  done;
  for r = 0 to 4_999 do
    for v = 0 to n - 1 do
      let k = Workload.arrivals w ~node:v ~round:r in
      if Workload.hot w ~node:v then hot_arr := !hot_arr + k
      else cold_arr := !cold_arr + k
    done
  done;
  checkb "at least one hot node" true (!hot_nodes >= 1);
  checkb "hot set is a strict subset" true (!hot_nodes < n);
  (* 90% of the rate goes to ~10% of the nodes *)
  checkb "hot nodes dominate arrivals" true (!hot_arr > 3 * !cold_arr)

let test_bursty_time_average () =
  (* On/off gating keeps the time-averaged rate: over a long horizon
     the bursty count is within 15% of the plain Poisson count at the
     same rate. *)
  let n = 16 and rounds = 40_000 in
  let total process =
    let w = Workload.create ~process ~n ~seed:7 () in
    let t = ref 0 in
    for r = 0 to rounds - 1 do
      for v = 0 to n - 1 do
        t := !t + Workload.arrivals w ~node:v ~round:r
      done
    done;
    !t
  in
  let poisson = total (Poisson { rate = 1.0 }) in
  let bursty =
    total (Bursty { rate = 1.0; on_mean = 25.0; off_mean = 75.0 })
  in
  let ratio = float_of_int bursty /. float_of_int poisson in
  checkb
    (Printf.sprintf "bursty/poisson ratio %.3f in [0.85, 1.15]" ratio)
    true
    (ratio > 0.85 && ratio < 1.15)

(* --- conservation: every message is accounted for exactly --- *)

let qcheck_conservation_cases =
  let open QCheck in
  let arb_policy =
    oneofl [ Serve.Drop_tail; Serve.Drop_newest; Serve.Source_throttle ]
  in
  [
    Test.make ~name:"Sim conserves messages exactly under any policy"
      ~count:40
      (quad arb_policy (int_range 1 8) (int_range 1 30) small_int)
      (fun (policy, queue_cap, rate10, seed) ->
        let config =
          Serve.config ~queue_cap ~max_inflight:256
            ~ttl:(40 + (seed mod 200))
            ~policy ~ack_deadline:6 ()
        in
        let sim =
          Serve.Sim.create ~config ~n:16 ~degree:4 ~relay_delay:1
            ~ack_delay:2 ()
        in
        let workload =
          Workload.create
            ~process:(Poisson { rate = float_of_int rate10 /. 10.0 })
            ~n:16 ~seed ()
        in
        let r = Serve.Sim.run sim ~workload ~rounds:600 () in
        r.Serve.audit = []
        && r.Serve.arrivals = r.Serve.admitted + r.Serve.rejected
        && r.Serve.admitted
           = r.Serve.completed + r.Serve.expired + r.Serve.inflight);
  ]

(* With a send hook that always refuses and n >= 2, nothing completes,
   so after every tick the expired count is exactly the number of
   admissions whose deadline has come, at any spacing of the ticks. *)
let qcheck_expiry_cases =
  let open QCheck in
  [
    Test.make ~name:"Core expires exactly the admissions due, at any tick gaps"
      ~count:100 small_int
      (fun seed ->
        let rng = Rng.of_int (seed + 31) in
        let ttl = 1 + Rng.int rng 20 in
        let n = 2 + Rng.int rng 11 in
        let config = Serve.config ~max_inflight:(1 + Rng.int rng 64) ~ttl () in
        let core = Serve.Core.create ~config ~n () in
        Serve.Core.set_send core (fun ~node:_ ~tag:_ -> false);
        let workload =
          Workload.create
            ~process:(Poisson { rate = 0.05 +. Rng.float rng 0.8 })
            ~n ~seed ()
        in
        (* (birth round, admissions at that tick), newest first *)
        let births = ref [] in
        let admitted = ref 0 in
        let ok = ref true in
        let round = ref 0 in
        for _ = 1 to 60 do
          Serve.Core.tick core ~workload ~round:!round;
          let r = Serve.Core.report core ~rounds:(!round + 1) in
          births := (!round, r.Serve.admitted - !admitted) :: !births;
          admitted := r.Serve.admitted;
          let due =
            List.fold_left
              (fun acc (b, k) -> if b + ttl <= !round then acc + k else acc)
              0 !births
          in
          if r.Serve.expired <> due || r.Serve.completed <> 0 || r.Serve.audit <> []
          then ok := false;
          round := !round + 1 + Rng.int rng (2 * ttl)
        done;
        !ok);
  ]

(* --- backpressure policies: who loses --- *)

let drive_policy policy =
  (* A send hook that always refuses keeps every queue saturated, so
     the policy's shedding site is isolated from channel dynamics. *)
  let config =
    Serve.config ~queue_cap:2 ~max_inflight:1024 ~ttl:100_000 ~policy ()
  in
  let core = Serve.Core.create ~config ~n:4 () in
  Serve.Core.set_send core (fun ~node:_ ~tag:_ -> false);
  let w = Workload.create ~process:(Poisson { rate = 8.0 }) ~n:4 ~seed:5 () in
  for r = 0 to 49 do
    Serve.Core.tick core ~workload:w ~round:r
  done;
  (core, Serve.Core.report core ~rounds:50)

let test_policy_drop_tail () =
  let core, r = drive_policy Serve.Drop_tail in
  checkb "arrivals happened" true (r.Serve.arrivals > 50);
  checkb "queue bound respected" true (Serve.Core.queued core <= 4 * 2);
  checkb "relays shed" true (r.Serve.relay_drops > 0);
  checki "no admission rejection (pool not full)" 0 r.Serve.rejected;
  checkb "audit clean" true (r.Serve.audit = [])

let test_policy_drop_newest () =
  let core, r = drive_policy Serve.Drop_newest in
  checkb "queue bound respected" true (Serve.Core.queued core <= 4 * 2);
  checkb "evictions counted as relay drops" true (r.Serve.relay_drops > 0);
  checki "no admission rejection (pool not full)" 0 r.Serve.rejected;
  checkb "audit clean" true (r.Serve.audit = [])

let test_policy_source_throttle () =
  let core, r = drive_policy Serve.Source_throttle in
  checkb "queue bound respected" true (Serve.Core.queued core <= 4 * 2);
  checkb "arrivals rejected at admission" true (r.Serve.rejected > 0);
  checkb "audit clean" true (r.Serve.audit = [])

let test_pool_exhaustion_rejects () =
  (* Pool of 4 slots, nothing ever completes or expires: the 5th
     admission and every one after it must be rejected, under any
     policy. *)
  let config =
    Serve.config ~queue_cap:16 ~max_inflight:4 ~ttl:100_000
      ~policy:Serve.Drop_tail ()
  in
  let core = Serve.Core.create ~config ~n:4 () in
  Serve.Core.set_send core (fun ~node:_ ~tag:_ -> false);
  let w = Workload.create ~process:(Poisson { rate = 4.0 }) ~n:4 ~seed:9 () in
  for r = 0 to 19 do
    Serve.Core.tick core ~workload:w ~round:r
  done;
  let r = Serve.Core.report core ~rounds:20 in
  checki "pool-size admissions" 4 r.Serve.admitted;
  checki "everything else rejected" (r.Serve.arrivals - 4) r.Serve.rejected;
  checki "all four still inflight" 4 r.Serve.inflight;
  checkb "audit clean" true (r.Serve.audit = [])

let test_single_node_completes_instantly () =
  (* n = 1: the source is the whole network, so every admission
     completes at admission with latency 0 and nothing is ever
     queued. *)
  let config = Serve.config ~queue_cap:4 ~max_inflight:64 ~ttl:100 () in
  let core = Serve.Core.create ~config ~n:1 () in
  Serve.Core.set_send core (fun ~node:_ ~tag:_ -> false);
  let w = Workload.create ~process:(Poisson { rate = 2.0 }) ~n:1 ~seed:3 () in
  for r = 0 to 99 do
    Serve.Core.tick core ~workload:w ~round:r
  done;
  let r = Serve.Core.report core ~rounds:100 in
  checkb "arrivals happened" true (r.Serve.arrivals > 0);
  checki "all admitted complete" r.Serve.admitted r.Serve.completed;
  checki "nothing queued" 0 (Serve.Core.queued core);
  checkb "zero delivery latency" true (r.Serve.delivery_p99 = 0.0);
  checkb "audit clean" true (r.Serve.audit = [])

let test_ttl_expiry () =
  (* A ttl far below the flooding time: overloaded messages must
     expire (freeing their slots) rather than accumulate, and the
     recycled slots make old queued relays stale. *)
  let config =
    Serve.config ~queue_cap:4 ~max_inflight:32 ~ttl:20
      ~policy:Serve.Drop_tail ~ack_deadline:4 ()
  in
  let sim =
    Serve.Sim.create ~config ~n:32 ~degree:2 ~relay_delay:1 ~ack_delay:2 ()
  in
  let workload =
    Workload.create ~process:(Poisson { rate = 2.0 }) ~n:32 ~seed:17 ()
  in
  let r = Serve.Sim.run sim ~workload ~rounds:800 () in
  checkb "messages expired" true (r.Serve.expired > 0);
  checkb "slots recycled (inflight stays bounded)" true
    (r.Serve.inflight <= 32);
  checkb "audit clean despite heavy expiry" true (r.Serve.audit = [])

(* A message expires at the first tick at or after round birth + ttl,
   however far apart the ticks are. *)
let test_expiry_across_tick_gaps () =
  let config = Serve.config ~ttl:2 () in
  let core = Serve.Core.create ~config ~n:2 () in
  Serve.Core.set_send core (fun ~node:_ ~tag:_ -> false);
  let w = Workload.create ~process:(Batch { sources = [ 0 ] }) ~n:2 ~seed:0 () in
  List.iter
    (fun (round, expired) ->
      Serve.Core.tick core ~workload:w ~round;
      let r = Serve.Core.report core ~rounds:(round + 1) in
      checki (Printf.sprintf "admitted after round %d" round) 1 r.Serve.admitted;
      checki (Printf.sprintf "expired after round %d" round) expired
        r.Serve.expired;
      checki (Printf.sprintf "inflight after round %d" round) (1 - expired)
        r.Serve.inflight;
      checkb (Printf.sprintf "audit clean after round %d" round) true
        (r.Serve.audit = []))
    [ (0, 0); (1, 0); (4, 1); (7, 1); (10, 1); (13, 1) ]

(* Expiry state is sized by the pool, never by the ttl.  The major
   slice folds allocations made straight in the major heap (the pool's
   arrays) into the counters; the least of three readings drops what
   domains that ended meanwhile may add. *)
let test_create_independent_of_ttl () =
  let total () =
    ignore (Gc.major_slice 0 : int);
    let minor, promoted, major = Gc.counters () in
    minor +. major -. promoted
  in
  let words ttl =
    let config = Serve.config ~max_inflight:256 ~ttl () in
    let once () =
      let before = total () in
      ignore (Sys.opaque_identity (Serve.Core.create ~config ~n:64 ()));
      total () -. before
    in
    min (once ()) (min (once ()) (once ()))
  in
  let small = words 10 in
  let large = words 1_000_000 in
  checkb (Printf.sprintf "create's pool is counted (%.0f words)" small) true
    (small > 0.0);
  checkb
    (Printf.sprintf "create allocates %.0f words at ttl 10^6, %.0f at ttl 10"
       large small)
    true (large = small)

(* --- determinism of full runs --- *)

let sim_report () =
  let config =
    Serve.config ~queue_cap:8 ~max_inflight:512 ~ttl:300 ~ack_deadline:8 ()
  in
  let sim =
    Serve.Sim.create ~config ~n:48 ~degree:6 ~relay_delay:1 ~ack_delay:3 ()
  in
  let workload =
    Workload.create
      ~process:(Bursty { rate = 0.8; on_mean = 20.0; off_mean = 60.0 })
      ~n:48 ~seed:23 ()
  in
  Serve.Sim.run sim ~workload ~rounds:2_000 ()

let test_sim_deterministic () =
  let a = sim_report () and b = sim_report () in
  checkb "something completed" true (a.Serve.completed > 0);
  checki "arrivals" a.Serve.arrivals b.Serve.arrivals;
  checki "admitted" a.Serve.admitted b.Serve.admitted;
  checki "completed" a.Serve.completed b.Serve.completed;
  checki "expired" a.Serve.expired b.Serve.expired;
  checki "relays" a.Serve.relays b.Serve.relays;
  checki "relay drops" a.Serve.relay_drops b.Serve.relay_drops;
  checki "acks" a.Serve.acks b.Serve.acks;
  checkb "p99 equal" true (a.Serve.delivery_p99 = b.Serve.delivery_p99)

(* --- the metrics mirror --- *)

let test_metrics_mirror () =
  let reg = Metrics.create () in
  let config =
    Serve.config ~queue_cap:8 ~max_inflight:256 ~ttl:300 ~ack_deadline:8 ()
  in
  let sim =
    Serve.Sim.create ~metrics:reg ~config ~n:32 ~degree:4 ~relay_delay:1
      ~ack_delay:2 ()
  in
  let workload =
    Workload.create ~process:(Poisson { rate = 0.5 }) ~n:32 ~seed:11 ()
  in
  let r = Serve.Sim.run sim ~workload ~rounds:1_000 () in
  let c name = Metrics.counter_value (Metrics.counter reg name) in
  checki "serve.arrivals mirrors" r.Serve.arrivals (c "serve.arrivals");
  checki "serve.admitted mirrors" r.Serve.admitted (c "serve.admitted");
  checki "serve.completed mirrors" r.Serve.completed (c "serve.completed");
  checki "serve.relays mirrors" r.Serve.relays (c "serve.relays");
  checki "serve.acks mirrors" r.Serve.acks (c "serve.acks");
  checki "serve.first_receptions mirrors" r.Serve.first_receptions
    (c "serve.first_receptions");
  let h = Metrics.bounded_histogram reg "serve.delivery_latency" in
  (match Metrics.summary h with
  | Some s -> checki "delivery histogram count = completions"
      r.Serve.completed s.Metrics.count
  | None -> Alcotest.fail "delivery histogram empty");
  checkb "bounded histogram has no per-node samples" true
    (Metrics.by_node h = [])

(* --- allocation: the steady state is allocation-free --- *)

let test_steady_state_allocation_free () =
  let config =
    Serve.config ~queue_cap:16 ~max_inflight:4096 ~ttl:500 ~ack_deadline:12 ()
  in
  let sim =
    Serve.Sim.create ~config ~n:64 ~degree:8 ~relay_delay:1 ~ack_delay:2 ()
  in
  let workload =
    Workload.create ~process:(Poisson { rate = 1.0 }) ~n:64 ~seed:22 ()
  in
  let r = Serve.Sim.run sim ~workload ~rounds:4_000 ~warmup:1_000 () in
  checkb "run was under load" true (r.Serve.arrivals > 3_000);
  checkb
    (Printf.sprintf "steady state allocates %.3f minor words/round (< 2)"
       r.Serve.minor_words_per_round)
    true
    (r.Serve.minor_words_per_round < 2.0);
  checkb "audit clean" true (r.Serve.audit = [])

(* --- the full MAC stack --- *)

let full_stack_report () =
  let dual = Geo.clique 6 in
  let params = Params.of_dual ~eps1:0.2 ~tack_phases:1 dual in
  let config = Serve.config ~queue_cap:8 ~max_inflight:64 ~ttl:4_000 () in
  let workload =
    Workload.create ~process:(Poisson { rate = 0.004 }) ~n:6 ~seed:13 ()
  in
  Serve.run ~config ~workload ~params ~rng:(Rng.of_int 3) ~dual
    ~scheduler:Sch.reliable_only ~rounds:5_000 ()

let test_full_stack_smoke () =
  let r = full_stack_report () in
  checkb "arrivals injected through the MAC tick hook" true
    (r.Serve.arrivals > 0);
  checkb "completions over the real MAC" true (r.Serve.completed > 0);
  checkb "acks observed" true (r.Serve.acks > 0);
  checkb "audit clean" true (r.Serve.audit = [])

let test_full_stack_deterministic () =
  let a = full_stack_report () and b = full_stack_report () in
  checki "arrivals" a.Serve.arrivals b.Serve.arrivals;
  checki "completed" a.Serve.completed b.Serve.completed;
  checki "relays" a.Serve.relays b.Serve.relays;
  checki "acks" a.Serve.acks b.Serve.acks;
  checkb "ack p99 equal" true
    (a.Serve.ack_p99 = b.Serve.ack_p99
    || (Float.is_nan a.Serve.ack_p99 && Float.is_nan b.Serve.ack_p99))

(* --- closed batches over the full stack --- *)

let batch_run ~dual ~rounds spec =
  let params = Params.of_dual ~eps1:0.2 ~tack_phases:2 dual in
  let process = Result.get_ok (Workload.parse spec) in
  let workload =
    Workload.create ~process ~n:(Dualgraph.Dual.n dual) ~seed:0 ()
  in
  Serve.run ~config:(Serve.config ~ttl:rounds ()) ~workload ~params
    ~rng:(Rng.of_int 5) ~dual ~scheduler:Sch.reliable_only ~rounds ()

let test_batch_island () =
  (* Node 2 is unreachable: the message never completes, so the run
     uses its whole round budget. *)
  let g = Dualgraph.Graph.create ~n:3 ~edges:[ (0, 1) ] in
  let dual = Dualgraph.Dual.create ~g ~g':g () in
  let r = batch_run ~dual ~rounds:2_000 "batch:0" in
  checki "runs to its round budget" 2_000 r.Serve.rounds;
  checki "nothing completed" 0 r.Serve.completed;
  checki "source and its neighbor covered" 2 r.Serve.first_receptions;
  checkb "delivery max is NaN" true (Float.is_nan r.Serve.delivery_max);
  checkb "audit clean" true (r.Serve.audit = [])

let test_batch_stops_when_done () =
  let dual = Geo.line ~n:5 ~spacing:0.9 () in
  let r = batch_run ~dual ~rounds:50_000 "batch:0" in
  checki "completed" 1 r.Serve.completed;
  checki "every node covered" 5 r.Serve.first_receptions;
  checki "stops the round after completion"
    (int_of_float r.Serve.delivery_max + 1)
    r.Serve.rounds;
  checkb "audit clean" true (r.Serve.audit = [])

(* --- flat memory at any horizon --- *)

(* Nothing on the full stack grows with run length: M11's field, served
   for 10^5 rounds, holds as many live words at the end as after 25,000
   rounds.  The glue is Serve.run's, with a tick that also samples the
   heap. *)
let test_full_stack_flat_memory () =
  let dual =
    Geo.random_field ~rng:(Rng.of_int 11) ~n:32 ~width:4.0 ~height:4.0 ~r:1.5
      ~gray_g':0.5 ()
  in
  let params = Params.of_dual ~eps1:0.25 ~tack_phases:1 dual in
  let core = Serve.Core.create ~config:(Serve.config ~ttl:30_000 ()) ~n:32 () in
  let tag (p : Localcast.Messages.payload) = p.tag in
  let callbacks =
    {
      Localcast.Mac.on_recv =
        (fun ~node ~round p -> Serve.Core.on_recv core ~node ~round ~tag:(tag p));
      on_ack = (fun ~node ~round p -> Serve.Core.on_ack core ~node ~round ~tag:(tag p));
    }
  in
  let mac = Localcast.Mac.create ~callbacks ~params ~rng:(Rng.of_int 11) ~dual () in
  Serve.Core.set_send core (fun ~node ~tag -> Localcast.Mac.request mac ~node ~tag);
  let workload =
    Workload.create ~process:(Poisson { rate = 0.002 }) ~n:32 ~seed:11 ()
  in
  let live_words () =
    Gc.full_major ();
    float_of_int (Gc.quick_stat ()).Gc.live_words
  in
  let early = ref 0.0 and late = ref 0.0 in
  let tick ~round =
    if round = 25_000 then early := live_words ()
    else if round = 99_999 then late := live_words ();
    Serve.Core.tick core ~workload ~round
  in
  let rounds =
    Localcast.Mac.run ~tick mac ~scheduler:(Sch.bernoulli ~seed:11 ~p:0.5)
      ~rounds:100_000
  in
  let r = Serve.Core.report core ~rounds in
  checkb (Printf.sprintf "messages completed (%d)" r.Serve.completed) true
    (r.Serve.completed > 0);
  checkb
    (Printf.sprintf "live words %.0f at round 25,000, %.0f at 99,999 (within 10%%)"
       !early !late)
    true
    (!early > 0.0 && Float.abs (!late -. !early) <= 0.1 *. !early)

let test_workload_size_mismatch () =
  let dual = Geo.clique 4 in
  let params = Params.of_dual ~eps1:0.2 ~tack_phases:1 dual in
  let workload =
    Workload.create ~process:(Poisson { rate = 0.01 }) ~n:5 ~seed:1 ()
  in
  checkb "workload/dual size mismatch raises" true
    (match
       Serve.run ~config:(Serve.config ()) ~workload ~params
         ~rng:(Rng.of_int 1) ~dual ~scheduler:Sch.reliable_only ~rounds:10 ()
     with
    | exception Invalid_argument _ -> true
    | _ -> false)

let suite =
  List.map
    (fun (name, f) -> Alcotest.test_case name `Quick f)
    [
      ("workload parse round-trip", test_parse_roundtrip);
      ("workload validation", test_create_validation);
      ("hotspot skew", test_hotspot_skew);
      ("bursty time-average rate", test_bursty_time_average);
      ("policy drop-tail", test_policy_drop_tail);
      ("policy drop-newest", test_policy_drop_newest);
      ("policy source-throttle", test_policy_source_throttle);
      ("pool exhaustion rejects", test_pool_exhaustion_rejects);
      ("single node completes instantly", test_single_node_completes_instantly);
      ("ttl expiry recycles slots", test_ttl_expiry);
      ("expiry at the first tick at or after birth + ttl",
        test_expiry_across_tick_gaps);
      ("create does not grow with ttl", test_create_independent_of_ttl);
      ("sim run deterministic", test_sim_deterministic);
      ("metrics mirror", test_metrics_mirror);
      ("steady state allocation-free", test_steady_state_allocation_free);
      ("full-stack smoke", test_full_stack_smoke);
      ("full-stack deterministic", test_full_stack_deterministic);
      ("full-stack live words flat over 10^5 rounds", test_full_stack_flat_memory);
      ("workload size mismatch", test_workload_size_mismatch);
      ("batch island runs to its budget", test_batch_island);
      ("batch stops once nothing is in flight", test_batch_stops_when_done);
    ]
  @ List.map QCheck_alcotest.to_alcotest
      (qcheck_workload_cases @ qcheck_conservation_cases
     @ qcheck_expiry_cases)
