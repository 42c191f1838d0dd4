(* M10/M11 + the long-horizon load run: the serving engine's perf
   contract, written to BENCH_service.json and gated in CI.

   M10 times the serving hot path in isolation — Serve.Sim rounds
   (arrival sampling, admission, bounded queues, relay pumping,
   reception, completion, ttl expiry) with no MAC underneath — at a
   rate past the flooding capacity, so the queues sit saturated the
   way a loaded deployment's would.  M11 times the full stack: the
   same engine glued onto the real abstract MAC layer over a dual
   graph.  The load section is the acceptance run: >= 10^6 offered
   arrivals in full mode, with the conservation audit, a goodput
   floor and the Gc.minor_words zero-allocation probe checked hard
   (failwith) before the artifact is written. *)

open Core
module Clock = Monotonic_clock
open Bechamel
open Toolkit
module Serve = Macapps.Serve
module Workload = Macapps.Workload
module Geo = Dualgraph.Geometric
module Params = Localcast.Params
module Sch = Radiosim.Scheduler

let bench ~name fn = (Test.make ~name (Staged.stage fn), fn)

(* The standard synthetic channel: ring degree 8, one-round relays,
   two-round acks — flooding capacity is n / ack_delay = 32 relays per
   round, i.e. about 0.5 completable messages per round, so rate 1.0 is
   ~2x overload: the steady state M10 measures keeps every queue near
   its bound with the backpressure policy doing real work. *)
let sim_config ~ttl =
  Serve.config ~queue_cap:16 ~max_inflight:4096 ~ttl ~ack_deadline:12 ()

let m10_serving_rounds =
  let workload =
    Workload.create ~process:(Poisson { rate = 1.0 }) ~n:64 ~seed:10 ()
  in
  let sim =
    Serve.Sim.create ~config:(sim_config ~ttl:500) ~n:64 ~degree:8
      ~relay_delay:1 ~ack_delay:2 ()
  in
  bench ~name:"M10 serving rounds x64 (sim n=64, rate 1.0)" (fun () ->
      for _ = 1 to 64 do
        Serve.Sim.step sim ~workload
      done)

let m11_full_stack =
  let dual =
    Geo.random_field
      ~rng:(Prng.Rng.of_int 11)
      ~n:32 ~width:4.0 ~height:4.0 ~r:1.5 ~gray_g':0.5 ()
  in
  let params = Params.of_dual ~eps1:0.25 ~tack_phases:1 dual in
  let config = Serve.config ~queue_cap:8 ~max_inflight:256 ~ttl:4096 () in
  let counter = ref 0 in
  bench ~name:"M11 full-stack serve 256 rounds (field-32)" (fun () ->
      incr counter;
      let rng = Prng.Rng.of_int !counter in
      let scheduler = Sch.bernoulli ~seed:!counter ~p:0.5 in
      let workload =
        Workload.create ~process:(Poisson { rate = 0.05 }) ~n:32 ~seed:!counter
          ()
      in
      ignore
        (Serve.run ~config ~workload ~params ~rng ~dual ~scheduler ~rounds:256
           ()))

(* --- the acceptance load run --- *)

let vm_rss_mb () =
  try
    let ic = open_in "/proc/self/status" in
    let rec scan () =
      match input_line ic with
      | line when String.length line > 6 && String.sub line 0 6 = "VmRSS:" ->
          let kb = String.trim (String.sub line 6 (String.length line - 6)) in
          let kb =
            match String.split_on_char ' ' kb with
            | v :: _ -> float_of_string v
            | [] -> Float.nan
          in
          close_in ic;
          kb /. 1024.0
      | _ -> scan ()
      | exception End_of_file ->
          close_in ic;
          Float.nan
    in
    scan ()
  with _ -> Float.nan

let load_run () =
  (* 5% headroom over 10^6 rounds: at rate 1.0 the offered count is
     Poisson-distributed around the round count, so driving exactly 10^6
     rounds misses the >= 10^6-arrivals floor about half the time *)
  let rounds = if !Exp_common.quick then 50_000 else 1_050_000 in
  let rate = 1.0 in
  let workload =
    Workload.create ~process:(Poisson { rate }) ~n:64 ~seed:22 ()
  in
  let sim =
    Serve.Sim.create ~config:(sim_config ~ttl:500) ~n:64 ~degree:8
      ~relay_delay:1 ~ack_delay:2 ()
  in
  let t0 = Clock.now () in
  let report = Serve.Sim.run sim ~workload ~rounds () in
  let wall_s = Int64.to_float (Int64.sub (Clock.now ()) t0) /. 1e9 in
  let rss = vm_rss_mb () in
  (* acceptance: the run must actually serve, conserve and not allocate *)
  if report.Serve.audit <> [] then
    failwith
      ("service load run failed conservation audit: "
      ^ String.concat "; " report.Serve.audit);
  if report.Serve.completed = 0 then
    failwith "service load run completed no messages (zero goodput)";
  if (not !Exp_common.quick) && report.Serve.arrivals < 1_000_000 then
    failwith
      (Printf.sprintf "service load run offered only %d arrivals (< 10^6)"
         report.Serve.arrivals);
  if report.Serve.minor_words_per_round > 8.0 then
    failwith
      (Printf.sprintf
         "service steady state allocates %.1f minor words/round (> 8): the \
          hot path regressed"
         report.Serve.minor_words_per_round);
  (report, wall_s, rss)

let write_json ~path rows (report, wall_s, rss) =
  let oc = open_out path in
  Printf.fprintf oc "{\n  \"git_rev\": \"%s\",\n  \"results\": {\n"
    (Obs.Json.escape (Exp_common.git_rev ()));
  List.iteri
    (fun i (name, ns, r2) ->
      Printf.fprintf oc
        "    \"%s\": { \"ns_per_run\": %.3f, \"r_square\": %s }%s\n"
        (Obs.Json.escape name) ns
        (match r2 with Some r -> Printf.sprintf "%.6f" r | None -> "null")
        (if i = List.length rows - 1 then "" else ","))
    rows;
  Printf.fprintf oc "  },\n  \"load\": {\n";
  let r = report in
  Printf.fprintf oc "    \"rounds\": %d,\n" r.Serve.rounds;
  Printf.fprintf oc "    \"arrivals\": %d,\n" r.Serve.arrivals;
  Printf.fprintf oc "    \"admitted\": %d,\n" r.Serve.admitted;
  Printf.fprintf oc "    \"rejected\": %d,\n" r.Serve.rejected;
  Printf.fprintf oc "    \"completed\": %d,\n" r.Serve.completed;
  Printf.fprintf oc "    \"expired\": %d,\n" r.Serve.expired;
  Printf.fprintf oc "    \"relays\": %d,\n" r.Serve.relays;
  Printf.fprintf oc "    \"relay_drops\": %d,\n" r.Serve.relay_drops;
  Printf.fprintf oc "    \"goodput\": %.6f,\n" r.Serve.goodput;
  Printf.fprintf oc "    \"delivery_p50\": %.1f,\n" r.Serve.delivery_p50;
  Printf.fprintf oc "    \"delivery_p99\": %.1f,\n" r.Serve.delivery_p99;
  Printf.fprintf oc "    \"ack_p50\": %.1f,\n" r.Serve.ack_p50;
  Printf.fprintf oc "    \"ack_p99\": %.1f,\n" r.Serve.ack_p99;
  Printf.fprintf oc "    \"max_queue_depth\": %d,\n" r.Serve.max_queue_depth;
  Printf.fprintf oc "    \"minor_words_per_round\": %.3f,\n"
    r.Serve.minor_words_per_round;
  Printf.fprintf oc "    \"rss_mb\": %.1f,\n" rss;
  Printf.fprintf oc "    \"wall_s\": %.2f,\n" wall_s;
  Printf.fprintf oc "    \"audit_failures\": %d\n" (List.length r.Serve.audit);
  Printf.fprintf oc "  }\n}\n";
  close_out oc

let warmup fn =
  let deadline = Int64.add (Clock.now ()) 50_000_000L (* 50 ms *) in
  let i = ref 0 in
  while !i < 8 || (Int64.compare (Clock.now ()) deadline < 0 && !i < 4096) do
    ignore (fn ());
    incr i
  done

let run () =
  Exp_common.section "M10-M11 + load: the multi-message serving engine";
  let tests = [ m10_serving_rounds; m11_full_stack ] in
  let cfg =
    Benchmark.cfg ~limit:3000
      ~quota:(Time.second (if !Exp_common.quick then 0.5 else 3.0))
      ~kde:None ()
  in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let table =
    Stats.Table.create ~title:"serving benchmarks"
      ~columns:[ "benchmark"; "time per run"; "r^2" ]
  in
  let measure_once (test, thunk) =
    warmup thunk;
    let results =
      Benchmark.all cfg instances (Test.make_grouped ~name:"g" [ test ])
    in
    let analyzed = Analyze.all ols Instance.monotonic_clock results in
    let row = ref None in
    Hashtbl.iter
      (fun name ols_result ->
        let estimate =
          match Analyze.OLS.estimates ols_result with
          | Some (e :: _) -> e
          | _ -> Float.nan
        in
        row := Some (name, estimate, Analyze.OLS.r_square ols_result))
      analyzed;
    match !row with
    | Some r -> r
    | None -> invalid_arg "service: benchmark produced no OLS result"
  in
  let max_attempts = if !Exp_common.quick then 1 else 3 in
  let rec measure_well attempt best bench =
    let (_, _, r2) as row = measure_once bench in
    let best =
      match (best, r2) with
      | None, _ -> row
      | Some (_, _, Some b), Some r when r > b -> row
      | Some b, _ -> b
    in
    match r2 with
    | Some r when r >= 0.9 -> row
    | _ when attempt >= max_attempts -> best
    | _ -> measure_well (attempt + 1) (Some best) bench
  in
  let rows = ref [] in
  List.iter
    (fun bench ->
      let name, estimate, r2 = measure_well 1 None bench in
      let rendered =
        if estimate > 1e6 then Printf.sprintf "%.3f ms" (estimate /. 1e6)
        else if estimate > 1e3 then Printf.sprintf "%.3f us" (estimate /. 1e3)
        else Printf.sprintf "%.1f ns" estimate
      in
      let r2_text =
        match r2 with Some r -> Printf.sprintf "%.4f" r | None -> "-"
      in
      let bare =
        match String.index_opt name '/' with
        | Some i -> String.sub name (i + 1) (String.length name - i - 1)
        | None -> name
      in
      rows := (bare, estimate, r2) :: !rows;
      Stats.Table.add_row table [ name; rendered; r2_text ])
    tests;
  Stats.Table.print table;
  let ((report, wall_s, rss) as load) = load_run () in
  Exp_common.note
    "load run: %d rounds, %d arrivals, %d completed (goodput %.3f/round),\n\
     delivery p50/p99 %.0f/%.0f rounds, %.3f minor words/round, RSS %.1f MB, \
     %.1fs"
    report.Serve.rounds report.Serve.arrivals report.Serve.completed
    report.Serve.goodput report.Serve.delivery_p50 report.Serve.delivery_p99
    report.Serve.minor_words_per_round rss wall_s;
  let path = Exp_common.artifact_path "BENCH_service.json" in
  write_json ~path (List.rev !rows) load;
  Exp_common.note "wrote %s (git rev %s)" path (Exp_common.git_rev ())
