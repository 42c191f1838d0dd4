(* Clocks, allocation counters, memory and the metric vocabulary shared
   by the four workloads. *)

open Benchkit

let now () = Int64.to_int (Monotonic_clock.now ())

let seconds_since t0 = float_of_int (now () - t0) /. 1e9

(* Words allocated so far: minor allocations plus the ones made directly
   in the major heap (large arrays), which [Gc.minor_words] misses. *)
let allocated_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* Peak resident set of this process (VmHWM), in MB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %f" (fun kb ->
            kb /. 1024.0)
    | _ -> scan ()
    | exception End_of_file -> Float.nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(* Run [f] and return its value with elapsed ns and allocated words. *)
let timed f =
  let w0 = allocated_words () in
  let t0 = now () in
  let v = f () in
  let t1 = now () in
  (v, t1 - t0, allocated_words () -. w0)

(* Set-up time: at least five samples and until [min_seconds] have gone
   into building, each build from a freshly collected heap; keep the
   last build.  Five, not three, because the quartiles of three samples
   are their extremes.  A sample is one build, or, for builds under a
   millisecond, the mean of a batch of builds that together take about
   one: within a thousand samples the builds then still span
   [min_seconds] rather than one short, possibly slow, stretch of the
   host.  [build] returns its value and the seconds its topology
   generator took. *)
let setup ~min_seconds build =
  let times = ref [] and field = ref [] and last = ref None in
  let spent = ref 0.0 and k = ref 0 and batch = ref 1 in
  while !k < 5 || (!spent < min_seconds && !k < 1000) do
    let ns = ref 0 and field_s = ref 0.0 in
    for _ = 1 to !batch do
      last := None;
      Gc.full_major ();
      let t0 = now () in
      let v, f = build () in
      ns := !ns + (now () - t0);
      last := Some v;
      field_s := !field_s +. f
    done;
    let dt = float_of_int !ns /. 1e9 in
    let per_build = dt /. float_of_int !batch in
    times := per_build :: !times;
    field := (!field_s /. float_of_int !batch) :: !field;
    spent := !spent +. dt;
    batch := max !batch (int_of_float (1e-3 /. per_build));
    incr k
  done;
  (Option.get !last, Array.of_list !times, Array.of_list !field)

(* One untimed warm-up, then timed repetitions until [seconds] have been
   spent measuring (at least [min_reps]).  [prepare] builds a rep's
   fresh state outside the clock, after the previous rep's state has
   been collected, so reps neither stack up in memory nor inherit each
   other's garbage.  Returns each rep's (value, ns, words). *)
let reps ~seconds ~min_reps ~prepare ~run =
  Gc.full_major ();
  ignore (run (prepare ()));
  let out = ref [] and spent = ref 0 and k = ref 0 in
  while !k < min_reps || (float_of_int !spent < seconds *. 1e9 && !k < 100) do
    Gc.full_major ();
    let x = prepare () in
    let ((_, ns, _) as r) = timed (fun () -> run x) in
    out := r :: !out;
    spent := !spent + ns;
    incr k
  done;
  List.rev !out

(* Boundary stamps of traced engine runs, in preallocated flat arrays so
   that stamping allocates nothing. *)
module Recorder = struct
  type t = {
    mutable len : int;
    marks : Span.mark array;
    at : int array;
    words : Float.Array.t;
  }

  let create capacity =
    {
      len = 0;
      marks = Array.make capacity Span.Run_start;
      at = Array.make capacity 0;
      words = Float.Array.make capacity 0.0;
    }

  let stamp t mark =
    let i = t.len in
    if i >= Array.length t.at then failwith "Recorder.stamp: capacity exceeded";
    Float.Array.unsafe_set t.words i (Gc.minor_words ());
    Array.unsafe_set t.at i (now ());
    Array.unsafe_set t.marks i mark;
    t.len <- i + 1

  let reset t = t.len <- 0

  let stamps t =
    Array.init t.len (fun i ->
        { Span.mark = t.marks.(i); at = t.at.(i); words = Float.Array.get t.words i })
end

(* --- run context --- *)

let default_seed = 20260706

type ctx = {
  seed : int;
  seconds : float;  (** measuring budget of one run *)
  smoke : bool;  (** tiny sizes, for the test suite *)
  trace : bool;  (** the per-layer pass *)
}

(* How long {!setup} keeps rebuilding.  The host's speed changes over
   seconds, so a quarter second of millisecond builds could fall in one
   slow stretch (lb-field's median then moved by a third between runs);
   a second of building averages over it.  The smoke run only needs the
   minimum. *)
let setup_seconds ctx = if ctx.smoke then 0.0 else 1.0

(* [k] independent input seeds (topology, processes, scheduler,
   arrivals, ...) drawn in a fixed order from one SplitMix stream keyed
   by --seed: the library only ever sees the generated inputs. *)
let sub_seeds seed k =
  let g = Prng.Splitmix.of_int seed in
  Array.init k (fun _ -> Int64.to_int (Prng.Splitmix.next g) land max_int)

(* FNV-1a, 63-bit: the order-sensitive digest of traces and reports. *)
let fnv_init = 0xcbf29ce48422325

let fnv h x = (h lxor x) * 0x100000001b3

(* --- metrics --- *)

type metric = { name : string; unit_ : string; samples : float array }

(* The value a metric reports: the median of its samples, 0 when the
   workload does not exercise the layer. *)
let value m = if Array.length m.samples = 0 then 0.0 else Stat.median m.samples

let one name unit_ v = { name; unit_; samples = [| v |] }

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

let pct ~over base = 100.0 *. (over -. base) /. base

(* Per node-round time and words of each (value, ns, words) rep. *)
let per_node_round ~node_rounds reps =
  Array.of_list (List.map (fun (_, ns, _) -> float_of_int ns /. node_rounds) reps)

let words_per_node_round ~node_rounds reps =
  Array.of_list (List.map (fun (_, _, w) -> w /. node_rounds) reps)

(* The end-to-end metrics of an untraced run. *)
let headline ~node_rounds ~setup_s reps =
  [
    { name = "ns_per_node_round"; unit_ = "ns"; samples = per_node_round ~node_rounds reps };
    { name = "setup_s"; unit_ = "s"; samples = setup_s };
    { name = "peak_rss_mb"; unit_ = "MB"; samples = [| peak_rss_mb () |] };
    {
      name = "alloc_words_per_node_round";
      unit_ = "words";
      samples = words_per_node_round ~node_rounds reps;
    };
  ]

(* --- correctness --- *)

(* [check name ok] records one check (reporting failures on stderr);
   the second function returns them in order. *)
let checker () =
  let checks = ref [] in
  let check name ok =
    if not ok then Printf.eprintf "check failed: %s\n%!" name;
    checks := (name, ok) :: !checks
  in
  (check, fun () -> List.rev !checks)

let failed_checks checks = List.length (List.filter (fun (_, ok) -> not ok) checks)

(* At the default seed a workload's output digest must be the recorded
   one. *)
let check_expected check ctx ~workload digest =
  if ctx.seed = default_seed then
    match Expected.find ~workload ~smoke:ctx.smoke with
    | Some want -> check ("default-seed digest is " ^ want) (digest = want)
    | None -> Printf.eprintf "%s: no recorded default-seed digest; got %s\n%!" workload digest

type spec = {
  name : string;
  unit_ : string;
  better : Stat.better;
  bound : float;  (** relative; BENCHMARK.json carries the same figure *)
  floor : float;  (** absolute, in the metric's unit *)
}

let end_to_end =
  [
    { name = "ns_per_node_round"; unit_ = "ns"; better = Lower; bound = 0.25; floor = 0.0 };
    { name = "setup_s"; unit_ = "s"; better = Lower; bound = 0.25; floor = 0.05 };
    { name = "peak_rss_mb"; unit_ = "MB"; better = Lower; bound = 0.10; floor = 0.0 };
    {
      name = "alloc_words_per_node_round";
      unit_ = "words";
      better = Lower;
      bound = 0.02;
      floor = 0.05;
    };
  ]

(* Per-layer metrics (name, unit), printed by every traced run; a layer
   a workload does not exercise reads 0 with no samples.  Times and
   words are per node-round unless the name says otherwise.
   BENCHMARK.json lists the same names with the direction each should
   move. *)
let per_layer =
  [
    ("radiosim.Env.inputs_ns", "ns");
    ("radiosim.Env.inputs_words", "words");
    ("radiosim.Process.decide_ns", "ns");
    ("radiosim.Process.decide_words", "words");
    ("localcast.Seed_alg.decide_ns", "ns");
    ("localcast.Lb_alg.decide_ns", "ns");
    ("radiosim.Engine.reception_ns", "ns");
    ("radiosim.Engine.reception_words", "words");
    ("radiosim.Engine.reception_self_ns", "ns");
    ("radiosim.Scheduler.fill_ns", "ns");
    ("radiosim.Scheduler.fill_words", "words");
    ("radiosim.Sinr.load_round_ns", "ns");
    ("radiosim.Sinr.scan_ns", "ns");
    ("radiosim.Sinr.create_s", "s");
    ("radiosim.Process.absorb_ns", "ns");
    ("radiosim.Process.absorb_words", "words");
    ("radiosim.Engine.tail_ns", "ns");
    ("radiosim.Engine.prologue_ns", "ns");
    ("localcast.Lb_spec.observe_ns", "ns");
    ("localcast.Lb_spec.observe_words", "words");
    ("radiosim.Tiled.ns_per_node_round", "ns");
    ("radiosim.Tiled.speedup", "x");
    ("dualgraph.Geometric.random_field_s", "s");
    ("macapps.Serve.Sim.step_ns_p50", "ns");
    ("macapps.Serve.Sim.step_ns_p99", "ns");
    ("macapps.Serve.Sim.step_ns_p999", "ns");
    ("macapps.Serve.Sim.step_samples", "count");
    ("macapps.Workload.arrivals_ns", "ns");
    ("macapps.Serve.Core.self_ns", "ns");
    ("obs.enabled_overhead_pct", "%");
    ("trace_overhead_pct", "%");
    ("trace.span_coverage_pct", "%");
    ("radiosim.Engine.transmitters", "1/round");
    ("radiosim.Engine.deliveries", "1/round");
    ("radiosim.Engine.collisions", "1/round");
    ("radiosim.Engine.delivery_ratio", "ratio");
    ("radiosim.Scheduler.active_edges", "1/round");
    ("radiosim.Scheduler.edges_resolved", "1/round");
    ("radiosim.Sinr.active_columns", "1/round");
    ("radiosim.Sinr.listeners_scanned", "1/round");
    ("radiosim.Sinr.decoded_ratio", "ratio");
    ("localcast.Lb_alg.recvs", "1/round");
    ("localcast.Seed_alg.commits", "1/round");
    ("localcast.Lb_spec.progress_rate", "ratio");
    ("localcast.Lb_spec.progress_failures", "count");
    ("macapps.Serve.arrivals", "count");
    ("macapps.Serve.admitted", "count");
    ("macapps.Serve.rejected", "count");
    ("macapps.Serve.completed", "count");
    ("macapps.Serve.expired", "count");
    ("macapps.Serve.relays", "count");
    ("macapps.Serve.relay_drops", "count");
    ("macapps.Serve.stale_skips", "count");
    ("macapps.Serve.acks", "count");
    ("macapps.Serve.ack_misses", "count");
    ("macapps.Serve.max_queue_depth", "count");
    ("macapps.Serve.mean_queue_depth", "count");
    ("macapps.Serve.completed_per_admitted", "ratio");
    ("macapps.Serve.relay_drops_per_relay", "ratio");
    ("macapps.Serve.stale_skips_per_relay", "ratio");
    ("macapps.Serve.goodput_per_round", "msgs/round");
    ("macapps.Serve.delivery_p50_rounds", "rounds");
    ("macapps.Serve.delivery_p99_rounds", "rounds");
  ]

(* What one run of one workload produced. *)
type outcome = {
  params : (string * Jsonv.t) list;  (** the workload's inputs, for --compare *)
  metrics : metric list;
  attempted : int;
  failed : int;
  checks : (string * bool) list;  (** correctness checks, all must hold *)
  spans : (int * Span.t) list;  (** traced runs only: (rep, span), rep -1 for replays *)
}

(* Complete a metric list against the names one pass must print. *)
let complete ~trace (found : metric list) =
  let names =
    if trace then per_layer
    else List.map (fun (s : spec) -> (s.name, s.unit_)) end_to_end
  in
  List.map
    (fun (name, unit_) ->
      match List.find_opt (fun (m : metric) -> m.name = name) found with
      | Some m -> m
      | None -> { name; unit_; samples = [||] })
    names
