(* The three engine workloads: lb-field (the paper's LB stack end to
   end), dual-1e6 (the round loop at the 10^6 headline scale) and
   sinr-1e5 (physical-interference reception).  README.md says why each
   was chosen and which layer metric should move which end-to-end
   metric. *)

open Core
open Benchkit
module Dual = Dualgraph.Dual
module Geo = Dualgraph.Geometric
module Sch = Radiosim.Scheduler
module Sinr = Radiosim.Sinr
module P = Radiosim.Process
module M = Localcast.Messages
module L = Localcast
module R = Meter.Recorder

let one = Meter.one

(* --- the traced pass: boundary stamps from the closures we pass in --- *)

let wrap_env rec_ (env : (_, _) Radiosim.Env.t) =
  {
    env with
    inputs =
      (fun ~round ~node ->
        if node = 0 then R.stamp rec_ Span.Inputs;
        env.inputs ~round ~node);
  }

let wrap_nodes rec_ (nodes : (_, _, _) P.node array) =
  let n = Array.length nodes in
  if n < 2 then invalid_arg "wrap_nodes: tracing needs two nodes";
  let first = nodes.(0) and last = nodes.(n - 1) in
  nodes.(0) <-
    {
      P.decide =
        (fun ~round i ->
          R.stamp rec_ Span.Decide_in;
          first.decide ~round i);
      absorb =
        (fun ~round d ->
          R.stamp rec_ Span.Absorb_in;
          first.absorb ~round d);
    };
  nodes.(n - 1) <-
    {
      P.decide =
        (fun ~round i ->
          let a = last.decide ~round i in
          R.stamp rec_ Span.Decide_out;
          a);
      absorb =
        (fun ~round d ->
          let o = last.absorb ~round d in
          R.stamp rec_ Span.Absorb_out;
          o);
    }

type 'a traced = { value : 'a; wall : int;  (** ns *) spans : Span.t list }

(* The traced pass: after one untimed warm-up, untraced repetitions (as
   {!Meter.reps} runs them) alternate with traced ones until [seconds]
   have been spent, at least two of each.  On a shared host the speed
   drifts by 10% and more within a minute; alternating lays that drift
   on both sides alike, so the tracing overhead compares like with
   like.
   [traced rec_] wraps a fresh run's closures and returns its thunk.
   The traced wall time is read around the stamps, so the spans' share
   of it is measured, not assumed.  Returns both sides' repetitions. *)
let paired_reps ~seconds ~rounds ~prepare ~run traced =
  let rec_ = R.create ((8 * rounds) + 8) in
  Gc.full_major ();
  ignore (run (prepare ()));
  let plain = ref [] and out = ref [] and spent = ref 0 and k = ref 0 in
  while !k < 2 || (float_of_int !spent < seconds *. 1e9 && !k < 100) do
    Gc.full_major ();
    let x = prepare () in
    let ((_, ns, _) as r) = Meter.timed (fun () -> run x) in
    plain := r :: !plain;
    Gc.full_major ();
    let thunk = traced rec_ in
    R.reset rec_;
    let t0 = Meter.now () in
    R.stamp rec_ Span.Run_start;
    let value = thunk () in
    R.stamp rec_ Span.Run_end;
    let wall = Meter.now () - t0 in
    out := { value; wall; spans = Span.of_stamps (R.stamps rec_) } :: !out;
    spent := !spent + ns + wall;
    incr k
  done;
  (List.rev !plain, List.rev !out)

(* Summed duration and words of the spans [keep] selects, per node-round
   of [reps] runs. *)
let cost ~node_rounds ?(reps = 1) ?(keep = fun _ -> true) spans =
  let d, w =
    List.fold_left
      (fun (d, w) s -> if keep s then (d + Span.duration s, w +. s.Span.words) else (d, w))
      (0, 0.0) spans
  in
  let denom = float_of_int reps *. node_rounds in
  (float_of_int d /. denom, w /. denom)

(* The metrics every traced engine run derives from its phase spans:
   per node-round time and words of each phase, reception's self time
   once the [replayed] kernels (spans with the round they stand for) are
   subtracted round by round, the share of traced wall time the root
   spans cover, and the tracing overhead: the median over the
   {!paired_reps} pairs of each traced rep against its untraced
   neighbour, which shares its stretch of host speed.  Returns them with
   the per-phase cost function.  The spans must cover nearly all of the
   wall time, or the phase split would leave work unattributed. *)
let phase_metrics check ~node_rounds ~untraced ~replayed traced =
  let reps = List.length traced in
  let spans = List.concat_map (fun t -> t.spans) traced in
  let phase name = cost ~node_rounds ~reps ~keep:(fun s -> s.Span.name = name) spans in
  let children = Hashtbl.create 64 in
  List.iter (fun c -> Hashtbl.add children c.Span.round c) replayed;
  let reception_self =
    List.fold_left
      (fun a s ->
        if s.Span.name = "reception" then a + Span.self_time s (Hashtbl.find_all children s.round)
        else a)
      0 spans
  in
  let walls = List.map (fun t -> float_of_int t.wall) traced in
  let rooted = cost ~node_rounds:1.0 ~keep:(fun s -> s.Span.parent = "") spans in
  let overhead =
    List.map2 (fun (_, ns, _) t -> Meter.pct ~over:(float_of_int t.wall) (float_of_int ns)) untraced traced
  in
  let coverage = 100.0 *. fst rooted /. List.fold_left ( +. ) 0.0 walls in
  check "the phase spans cover at least 90% of the traced wall time" (coverage >= 90.0);
  let both metric name =
    let ns, words = phase name in
    [ one (metric ^ "_ns") "ns" ns; one (metric ^ "_words") "words" words ]
  in
  ( phase,
    both "radiosim.Env.inputs" "inputs"
    @ both "radiosim.Process.decide" "decide"
    @ both "radiosim.Engine.reception" "reception"
    @ both "radiosim.Process.absorb" "absorb"
    @ [
        one "radiosim.Engine.reception_self_ns" "ns"
          (float_of_int reception_self /. (float_of_int reps *. node_rounds));
        one "radiosim.Engine.tail_ns" "ns" (fst (phase "tail"));
        one "radiosim.Engine.prologue_ns" "ns" (fst (phase "prologue"));
        one "trace.span_coverage_pct" "%" coverage;
        one "trace_overhead_pct" "%" (Stat.median (Array.of_list overhead));
      ] )

(* --- engine counts, read off the structural event stream --- *)

type counts = {
  mutable digest : int;
      (** FNV over every Transmit, Deliver, Collision and Round_end in
          emission order: the engine emits them in ascending node order
          at any tile count, so equal digests mean equal traces *)
  mutable transmitters : int;
  mutable deliveries : int;
  mutable collisions : int;
  mutable commits : int;
  mutable recvs : int;
  round_tx : int array;  (** transmitters per round *)
  tx_sets : int list array;  (** per round, descending ids (when kept) *)
}

let counting_sink ?(keep_sets = false) ~rounds sink =
  let c =
    {
      digest = Meter.fnv_init;
      transmitters = 0;
      deliveries = 0;
      collisions = 0;
      commits = 0;
      recvs = 0;
      round_tx = Array.make rounds 0;
      tx_sets = Array.make (if keep_sets then rounds else 0) [];
    }
  in
  let mix kind round node = c.digest <- Meter.fnv (Meter.fnv (Meter.fnv c.digest kind) round) node in
  Obs.Sink.on_event sink (function
    | Obs.Event.Round_end { round; transmitters; deliveries; collisions } ->
        mix 4 round transmitters;
        c.transmitters <- c.transmitters + transmitters;
        c.deliveries <- c.deliveries + deliveries;
        c.collisions <- c.collisions + collisions;
        c.round_tx.(round) <- transmitters
    | Obs.Event.Transmit { round; node } ->
        mix 1 round node;
        if keep_sets then c.tx_sets.(round) <- node :: c.tx_sets.(round)
    | Obs.Event.Deliver { round; node } -> mix 2 round node
    | Obs.Event.Collision { round; node } -> mix 3 round node
    | Obs.Event.Seed_commit _ -> c.commits <- c.commits + 1
    | Obs.Event.Recv _ -> c.recvs <- c.recvs + 1
    | _ -> ());
  c

let count_metrics ~rounds c =
  let per x = float_of_int x /. float_of_int rounds in
  [
    one "radiosim.Engine.transmitters" "1/round" (per c.transmitters);
    one "radiosim.Engine.deliveries" "1/round" (per c.deliveries);
    one "radiosim.Engine.collisions" "1/round" (per c.collisions);
    one "radiosim.Engine.delivery_ratio" "ratio"
      (Meter.ratio c.deliveries (c.deliveries + c.collisions));
  ]

(* --- reception's children, replayed on fresh state --- *)

let kernel name round f =
  let w0 = Gc.minor_words () in
  let t0 = Meter.now () in
  f ();
  let t1 = Meter.now () in
  { Span.name; parent = "reception"; round; start = t0; stop = t1; words = Gc.minor_words () -. w0 }

(* The activation resolution of every round in which the engine resolves
   one (some transmitter and some unreliable edge), on a fresh scheduler
   with the run's seed.  Returns the spans and the per-round metrics,
   after checking that the replay resolved exactly the engine's active
   and resolved edge counts. *)
let replay_fill check scheduler ~m ~rounds ~node_rounds ~round_tx ~active ~resolved =
  let buf = Array.make (max m 1) 0 in
  let spans = ref [] and a = ref 0 and r = ref 0 in
  Array.iteri
    (fun round tx ->
      if tx > 0 && m > 0 then begin
        let k = ref 0 in
        spans :=
          kernel "scheduler.fill" round (fun () -> k := Sch.fill_active_sparse scheduler ~round ~m buf)
          :: !spans;
        a := !a + !k;
        r := !r + if Sch.resolves_sparsely scheduler then !k else m
      end)
    round_tx;
  check "the scheduler replay resolves the engine's active edges" (!a = active && !r = resolved);
  let per x = float_of_int x /. float_of_int rounds in
  let ns, words = cost ~node_rounds !spans in
  ( !spans,
    [
      one "radiosim.Scheduler.fill_ns" "ns" ns;
      one "radiosim.Scheduler.fill_words" "words" words;
      one "radiosim.Scheduler.active_edges" "1/round" (per !a);
      one "radiosim.Scheduler.edges_resolved" "1/round" (per !r);
    ] )

(* Load, active-column and scan kernels on the transmitter sets the
   correctness run recorded, visiting listeners exactly as the engine
   does; the decoded and drowned totals must be the engine's deliveries
   and collisions. *)
let replay_sinr check ~params ~dual ~rounds ~node_rounds (c : counts) =
  let t0 = Meter.now () in
  let f = Sinr.create ~params dual in
  let create_s = Meter.seconds_since t0 in
  let n = Dual.n dual in
  let on_air = Bytes.make n '\000' and buf = Array.make (max n 1) 0 in
  let soff = Sinr.slot_off f and snode = Sinr.slot_node f in
  let spans = ref [] and columns = ref 0 and scanned = ref 0 in
  let decoded = ref 0 and drowned = ref 0 in
  Array.iteri
    (fun round ids ->
      let count = List.length ids in
      if count > 0 then begin
        List.iteri
          (fun i v ->
            buf.(count - 1 - i) <- v;
            Bytes.set on_air v '\001')
          ids;
        let load =
          kernel "sinr.load_round" round (fun () -> Sinr.load_round f ~transmitters:buf ~count)
        in
        let scan =
          kernel "sinr.scan" round (fun () ->
              let act, nact = Sinr.active_columns f in
              columns := !columns + nact;
              for a = 0 to nact - 1 do
                let c = act.(a) in
                let lo = soff.(c) and hi = soff.(c + 1) in
                Sinr.scan_slots f ~column:c ~lo ~hi;
                for s = lo to hi - 1 do
                  if Bytes.get on_air snode.(s) = '\000' then begin
                    incr scanned;
                    match Sinr.verdict f ~jammed:false ~slot:s with
                    | -1 -> ()
                    | -2 -> incr drowned
                    | _ -> incr decoded
                  end
                done
              done)
        in
        spans := scan :: load :: !spans;
        List.iter (fun v -> Bytes.set on_air v '\000') ids
      end)
    c.tx_sets;
  check "the SINR replay decodes the engine's deliveries and collisions"
    (!decoded = c.deliveries && !drowned = c.collisions);
  let per x = float_of_int x /. float_of_int rounds in
  let kernel_ns name = fst (cost ~node_rounds ~keep:(fun s -> s.Span.name = name) !spans) in
  ( !spans,
    [
      one "radiosim.Sinr.load_round_ns" "ns" (kernel_ns "sinr.load_round");
      one "radiosim.Sinr.scan_ns" "ns" (kernel_ns "sinr.scan");
      one "radiosim.Sinr.create_s" "s" create_s;
      one "radiosim.Sinr.active_columns" "1/round" (per !columns);
      one "radiosim.Sinr.listeners_scanned" "1/round" (per !scanned);
      one "radiosim.Sinr.decoded_ratio" "ratio" (Meter.ratio !decoded (!decoded + !drowned));
    ] )

let with_rep traced replayed =
  List.concat (List.mapi (fun i t -> List.map (fun s -> (i, s)) t.spans) traced)
  @ List.map (fun s -> (-1, s)) replayed

(* --- dual-1e6 and sinr-1e5 --- *)

let field_engine (ctx : Meter.ctx) ~workload ~reception ~n ~r ~transmit_p ~rounds =
  let check, checks = Meter.checker () in
  let seeds = Meter.sub_seeds ctx.seed 3 in
  let topo_seed = seeds.(0) and node_seed = seeds.(1) and sched_seed = seeds.(2) in
  let sched_p = 0.02 in
  let side = sqrt (float_of_int n) in
  let make_nodes () =
    let rng = Prng.Rng.of_int node_seed in
    Array.init n (fun src ->
        Baseline.Uniform.node ~p:transmit_p
          ~message:(M.payload ~src ~uid:0 ())
          ~rng:(Prng.Rng.split rng))
  in
  let (dual, _), setup_s, field_s =
    Meter.setup ~min_seconds:(Meter.setup_seconds ctx) (fun () ->
        let t0 = Meter.now () in
        let dual =
          Geo.random_field ~rng:(Prng.Rng.of_int topo_seed) ~n ~width:side ~height:side ~r
            ~gray_g':0.5 ()
        in
        let field_s = Meter.seconds_since t0 in
        ((dual, make_nodes ()), field_s))
  in
  let scheduler () = Sch.bernoulli_sparse ~seed:sched_seed ~p:sched_p in
  let null_env = Radiosim.Env.null ~name:workload () in
  let run ?sink ?metrics ?(env = null_env) ~tiles nodes =
    Radiosim.Tiled.run ?sink ?metrics ?reception ~tiles ~dual ~scheduler:(scheduler ()) ~nodes
      ~env ~rounds ()
  in
  (* Correctness: a separate, untimed run at each tile count whose event
     stream is digested.  A round-record observer would do, but at 10^6
     nodes its n-sized record arrays add about a gigabyte of peak RSS. *)
  let sinr_params = match reception with Some (Radiosim.Reception.Sinr p) -> Some p | _ -> None in
  let digest ~tiles =
    Gc.full_major ();
    let sink = Obs.Sink.create ~capacity:1 () in
    let counts = counting_sink ~keep_sets:(ctx.trace && sinr_params <> None) ~rounds sink in
    let metrics = Obs.Metrics.create () in
    let executed = run ~sink ~metrics ~tiles (make_nodes ()) in
    let counter name = Obs.Metrics.counter_value (Obs.Metrics.counter metrics name) in
    check (Printf.sprintf "tiles=%d executes all %d rounds" tiles rounds) (executed = rounds);
    (counts, (counter "engine.active_edges", counter "scheduler.edges_resolved"))
  in
  let c1, edges1 = digest ~tiles:1 in
  let c2, edges2 = digest ~tiles:2 in
  check "tiles=1 and tiles=2 traces are identical"
    (c1.digest = c2.digest && c1.transmitters = c2.transmitters && c1.deliveries = c2.deliveries
    && c1.collisions = c2.collisions && edges1 = edges2);
  Meter.check_expected check ctx ~workload
    (Printf.sprintf "trace=%016x tx=%d deliveries=%d collisions=%d" (c1.digest land max_int)
       c1.transmitters c1.deliveries c1.collisions);
  let node_rounds = float_of_int (n * rounds) in
  let untraced, traced =
    if not ctx.trace then
      (Meter.reps ~seconds:ctx.seconds ~min_reps:2 ~prepare:make_nodes ~run:(run ~tiles:1), [])
    else
      paired_reps ~seconds:ctx.seconds ~rounds ~prepare:make_nodes ~run:(run ~tiles:1) (fun rec_ ->
          let nodes = make_nodes () in
          wrap_nodes rec_ nodes;
          let env = wrap_env rec_ null_env in
          fun () -> run ~env ~tiles:1 nodes)
  in
  let short = List.fold_left (fun a (ex, _, _) -> a + (rounds - ex)) 0 untraced in
  check "every timed rep executes all rounds" (short = 0);
  let metrics, spans =
    if not ctx.trace then (Meter.headline ~node_rounds ~setup_s untraced, [])
    else begin
      check "traced reps execute all rounds" (List.for_all (fun t -> t.value = rounds) traced);
      let replayed, layer =
        match sinr_params with
        | None ->
            replay_fill check (scheduler ()) ~m:(Dual.unreliable_count dual) ~rounds ~node_rounds
              ~round_tx:c1.round_tx ~active:(fst edges1) ~resolved:(snd edges1)
        | Some params -> replay_sinr check ~params ~dual ~rounds ~node_rounds c1
      in
      let _, phases = phase_metrics check ~node_rounds ~untraced ~replayed traced in
      let tiled = Meter.reps ~seconds:0.0 ~min_reps:2 ~prepare:make_nodes ~run:(run ~tiles:2) in
      let t1 = Stat.median (Meter.per_node_round ~node_rounds untraced) in
      let t2 = Stat.median (Meter.per_node_round ~node_rounds tiled) in
      ( phases @ layer @ count_metrics ~rounds c1
        @ [
            one "radiosim.Tiled.ns_per_node_round" "ns" t2;
            one "radiosim.Tiled.speedup" "x" (t1 /. t2);
            { Meter.name = "dualgraph.Geometric.random_field_s"; unit_ = "s"; samples = field_s };
          ],
        with_rep traced replayed )
    end
  in
  let checks = checks () in
  {
    Meter.params =
      [
        ("n", Jsonv.Num (float_of_int n));
        ("side", Jsonv.Num side);
        ("r", Jsonv.Num r);
        ("gray", Jsonv.Num 0.5);
        ("process", Jsonv.Str (Printf.sprintf "uniform:%g" transmit_p));
        ("scheduler", Jsonv.Str (Printf.sprintf "bernoulli-sparse:%g" sched_p));
        ( "reception",
          Jsonv.Str
            (Radiosim.Reception.to_spec
               (Option.value reception ~default:Radiosim.Reception.dual_graph)) );
        ("rounds", Jsonv.Num (float_of_int rounds));
      ];
    metrics;
    attempted = List.length untraced * rounds;
    failed = short + Meter.failed_checks checks;
    checks;
    spans;
  }

let dual_1e6 (ctx : Meter.ctx) =
  let n, rounds = if ctx.smoke then (2_000, 10) else (1_000_000, 24) in
  field_engine ctx ~workload:"dual-1e6" ~reception:None ~n ~r:1.5 ~transmit_p:0.01 ~rounds

let sinr_1e5 (ctx : Meter.ctx) =
  let n, rounds = if ctx.smoke then (2_000, 10) else (100_000, 60) in
  let reception =
    match Radiosim.Reception.of_spec "sinr:alpha=3,beta=1.2,noise=0.02" with
    | Ok m -> m
    | Error e -> invalid_arg e
  in
  field_engine ctx ~workload:"sinr-1e5" ~reception:(Some reception) ~n ~r:1.0
    ~transmit_p:0.005 ~rounds

(* --- lb-field --- *)

let lb_digest (r : L.Lb_spec.report) =
  Printf.sprintf "rounds=%d validity=%d acks=%d late=%d missing=%d rel=%d/%d prog=%d/%d lat=%016x"
    r.rounds_observed r.validity_violations r.ack_count r.late_ack_count r.missing_ack_count
    r.reliability_failures r.reliability_attempts r.progress_failures r.progress_opportunities
    (List.fold_left Meter.fnv Meter.fnv_init r.progress_latencies land max_int)

let lb_field (ctx : Meter.ctx) =
  let check, checks = Meter.checker () in
  let n, side, phases = if ctx.smoke then (400, 20.0, 1) else (10_000, 100.0, 2) in
  let seeds = Meter.sub_seeds ctx.seed 2 in
  let topo_seed = seeds.(0) and run_seed = seeds.(1) in
  let senders = List.init (n / 100) (fun k -> 100 * k) in
  let (dual, params), setup_s, field_s =
    Meter.setup ~min_seconds:(Meter.setup_seconds ctx) (fun () ->
        let t0 = Meter.now () in
        let dual =
          Geo.random_field ~rng:(Prng.Rng.of_int topo_seed) ~n ~width:side ~height:side ~r:1.5
            ~gray_g':0.5 ()
        in
        let field_s = Meter.seconds_since t0 in
        let params = L.Params.of_dual ~eps1:0.1 dual in
        ignore (L.Lb_alg.network params ~rng:(Prng.Rng.of_int run_seed) ~n);
        ((dual, params), field_s))
  in
  let rounds = phases * params.L.Params.phase_len in
  let node_rounds = float_of_int (n * rounds) in
  let service ?sink ?metrics () =
    L.Service.run ?sink ?metrics ~dual ~params ~senders ~phases ~seed:run_seed ()
  in
  (* Service.run's pipeline, rebuilt from its public pieces so the
     closures handed to the engine can be wrapped. *)
  let traced_pipeline rec_ =
    let nodes = L.Lb_alg.network params ~rng:(Prng.Rng.of_int run_seed) ~n in
    let envt = L.Lb_env.saturate ~n ~senders () in
    let monitor = L.Lb_spec.monitor ~dual ~params ~env:envt () in
    let scheduler = Sch.bernoulli ~seed:run_seed ~p:0.5 in
    wrap_nodes rec_ nodes;
    let env = wrap_env rec_ (L.Lb_env.env envt) in
    let observer record =
      R.stamp rec_ Span.Observe_in;
      L.Lb_spec.observe monitor record;
      R.stamp rec_ Span.Observe_out
    in
    fun () ->
      let executed = Radiosim.Engine.run ~observer ~dual ~scheduler ~nodes ~env ~rounds () in
      (executed, L.Lb_spec.finish monitor)
  in
  let untraced, traced =
    if not ctx.trace then (Meter.reps ~seconds:ctx.seconds ~min_reps:2 ~prepare:Fun.id ~run:service, [])
    else paired_reps ~seconds:ctx.seconds ~rounds ~prepare:Fun.id ~run:service traced_pipeline
  in
  let base = (let o, _, _ = List.hd untraced in o).L.Service.report in
  check "every rep executes all rounds"
    (List.for_all (fun (o, _, _) -> o.L.Service.rounds_executed = rounds) untraced);
  check "zero validity violations" (base.validity_violations = 0);
  check "the report is identical across reps"
    (List.for_all (fun (o, _, _) -> o.L.Service.report = base) untraced);
  Meter.check_expected check ctx ~workload:"lb-field" (lb_digest base);
  let metrics, spans =
    if not ctx.trace then (Meter.headline ~node_rounds ~setup_s untraced, [])
    else begin
      check "the traced pipeline reproduces Service.run's report"
        (List.for_all (fun t -> t.value = (rounds, base)) traced);
      (* Observability on: a bounded sink, the metrics registry and the
         online auditor.  Its event stream also gives the engine counts
         and the rounds the scheduler replay must resolve.  It is timed
         against an adjacent run without them, as in {!paired_reps}. *)
      let sink = Obs.Sink.create () in
      let registry = Obs.Metrics.create () in
      let auditor = L.Lb_obs.auditor ~dual ~params () in
      Obs.Sink.on_event sink (Obs.Audit.observe auditor);
      let counts = counting_sink ~rounds sink in
      Gc.full_major ();
      let observed, obs_ns, _ = Meter.timed (fun () -> service ~sink ~metrics:registry ()) in
      Gc.full_major ();
      let _, plain_ns, _ = Meter.timed service in
      Obs.Audit.finish auditor;
      check "the observability-enabled run reproduces the report" (observed.L.Service.report = base);
      let misses =
        List.length
          (List.filter
             (fun v -> match v.Obs.Audit.kind with Obs.Audit.Progress_miss _ -> true | _ -> false)
             (Obs.Audit.violations auditor))
      in
      check "the online auditor agrees with Lb_spec on progress misses"
        (misses = base.progress_failures);
      let counter name = Obs.Metrics.counter_value (Obs.Metrics.counter registry name) in
      let replayed, layer =
        replay_fill check (Sch.bernoulli ~seed:run_seed ~p:0.5) ~m:(Dual.unreliable_count dual)
          ~rounds ~node_rounds ~round_tx:counts.round_tx ~active:(counter "engine.active_edges")
          ~resolved:(counter "scheduler.edges_resolved")
      in
      let phase, phases = phase_metrics check ~node_rounds ~untraced ~replayed traced in
      let decide_in preamble =
        cost ~node_rounds ~reps:(List.length traced)
          ~keep:(fun s -> s.Span.name = "decide" && L.Lb_alg.is_preamble_round params s.round = preamble)
          (List.concat_map (fun t -> t.spans) traced)
      in
      let observe_ns, observe_words = phase "observe" in
      let per_round x = float_of_int x /. float_of_int rounds in
      ( phases @ layer
        @ [
            one "localcast.Seed_alg.decide_ns" "ns" (fst (decide_in true));
            one "localcast.Lb_alg.decide_ns" "ns" (fst (decide_in false));
            one "localcast.Lb_spec.observe_ns" "ns" observe_ns;
            one "localcast.Lb_spec.observe_words" "words" observe_words;
            one "localcast.Lb_alg.recvs" "1/round" (per_round counts.recvs);
            one "localcast.Seed_alg.commits" "1/round" (per_round counts.commits);
            one "localcast.Lb_spec.progress_rate" "ratio" (L.Lb_spec.progress_rate base);
            one "localcast.Lb_spec.progress_failures" "count" (float_of_int base.progress_failures);
            one "obs.enabled_overhead_pct" "%"
              (Meter.pct ~over:(float_of_int obs_ns) (float_of_int plain_ns));
            { Meter.name = "dualgraph.Geometric.random_field_s"; unit_ = "s"; samples = field_s };
          ]
        @ count_metrics ~rounds counts,
        with_rep traced replayed )
    end
  in
  let checks = checks () in
  {
    Meter.params =
      [
        ("n", Jsonv.Num (float_of_int n));
        ("side", Jsonv.Num side);
        ("r", Jsonv.Num 1.5);
        ("gray", Jsonv.Num 0.5);
        ("eps1", Jsonv.Num 0.1);
        ("senders", Jsonv.Num (float_of_int (List.length senders)));
        ("phases", Jsonv.Num (float_of_int phases));
        ("rounds", Jsonv.Num (float_of_int rounds));
        ("scheduler", Jsonv.Str "bernoulli:0.5");
      ];
    metrics;
    attempted = base.progress_opportunities + base.reliability_attempts;
    failed =
      base.validity_violations + base.late_ack_count + base.missing_ack_count
      + Meter.failed_checks checks;
    checks;
    spans;
  }
