(* Shared machinery for the experiment harness (see DESIGN.md §4 for the
   experiment index).  Every experiment is a deterministic function of the
   master seed below, so the tables in EXPERIMENTS.md can be regenerated
   exactly. *)

open Core
module Dual = Dualgraph.Dual
module Geo = Dualgraph.Geometric
module Sch = Radiosim.Scheduler
module Engine = Radiosim.Engine
module Trace = Radiosim.Trace
module M = Localcast.Messages
module Params = Localcast.Params
module L = Localcast

let master_seed = 20260706

(* Quick mode: fewer trials, smaller sweeps; set from the command line. *)
let quick = ref false

let trials_scaled n = if !quick then max 2 (n / 4) else n

(* Worker domains for the trial runner; set by --domains or the
   LOCALCAST_DOMAINS environment variable.  Results are bit-identical at
   every value (Stats.Experiment.trials_par restores trial order and
   derives per-trial seeds from the trial index alone), so parallelism
   is purely a wall-clock knob. *)
let domains =
  ref
    (match Sys.getenv_opt "LOCALCAST_DOMAINS" with
    | Some s -> ( match int_of_string_opt s with Some d when d >= 1 -> d | _ -> 1)
    | None -> 1)

(* The standard trial loop: [n] independently seeded trials of [f], run
   over the domain pool.  [salt] distinguishes sweeps within one
   experiment (e.g. one row per Δ) that would otherwise share trial
   streams; experiments that deliberately pair samples (same seeds for
   two algorithms or schedulers) call this twice with the same salt.
   [f] runs concurrently with itself: it must keep its state trial-local
   and return its measurements for sequential aggregation. *)
let run_trials ?(salt = 0) ~n f =
  Stats.Experiment.trials_par ~domains:!domains ~seed:(master_seed + salt) ~n f

(* The working tree's short git revision, stamped into the JSON
   artifacts (BENCH_micro.json, BENCH_obs.json) so perf and observability
   trajectories can be tracked across commits. *)
let git_rev () =
  try
    let ic = Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" in
    let rev = try String.trim (input_line ic) with End_of_file -> "" in
    match Unix.close_process_in ic with
    | Unix.WEXITED 0 when rev <> "" -> rev
    | _ -> "unknown"
  with _ -> "unknown"

(* Where a BENCH_* artifact goes: the working directory in a full run,
   which regenerates the committed snapshots, and [_build/] in a quick
   run, so a smoke run at the repository root never overwrites them. *)
let artifact_path name =
  if !quick then begin
    if not (Sys.file_exists "_build") then Sys.mkdir "_build" 0o755;
    Filename.concat "_build" name
  end
  else name

let section title =
  Printf.printf "\n######## %s ########\n%!" title

let note fmt = Printf.ksprintf (fun s -> Printf.printf "%s\n%!" s) fmt

(* --- standard topologies --- *)

let random_field ~seed ~n ?(width = 4.0) ?(r = 1.5) ?(gray = 0.5) () =
  Geo.random_field ~rng:(Prng.Rng.of_int seed) ~n ~width ~height:width ~r
    ~gray_g':gray ()

(* --- seed agreement trial --- *)

type seed_outcome = {
  seed_report : L.Seed_spec.report;
  decisions : (int * M.seed_announcement) list array;
}

let run_seed_trial ~dual ~params ~delta_bound ~scheduler ~seed =
  let n = Dual.n dual in
  let rng = Prng.Rng.of_int seed in
  let nodes = L.Seed_alg.network params ~rng ~n in
  let trace, observer = Trace.recorder () in
  let (_ : int) =
    Engine.run ~observer ~dual ~scheduler ~nodes
      ~env:(Radiosim.Env.null ~name:"seed" ())
      ~rounds:(L.Seed_alg.duration params)
      ()
  in
  let decisions = L.Seed_spec.decisions_of_trace trace ~n in
  { seed_report = L.Seed_spec.check ~dual ~delta_bound ~decisions; decisions }

(* --- local broadcast trial --- *)

let run_lb_trial ?(scheduler_of_seed = fun seed -> Sch.bernoulli ~seed ~p:0.5)
    ?observer ~dual ~params ~senders ~phases ~seed () =
  let outcome =
    L.Service.run ~scheduler:(scheduler_of_seed seed) ?observer ~dual ~params
      ~senders ~phases ~seed ()
  in
  outcome.L.Service.report

(* One-shot reliability trial: node 0 broadcasts once at round 0; runs the
   full derived acknowledgement window. *)
let run_reliability_trial ~dual ~params ~seed =
  let outcome, _, completion = L.Service.one_shot ~dual ~params ~sender:0 ~seed () in
  (outcome.L.Service.report, completion)

let lbalg_first_reception ~dual ~params ~scheduler ~receiver ~seed ~max_rounds =
  L.Service.first_reception ~scheduler ~dual ~params ~receiver ~max_rounds ~seed ()

let decay_first_reception ~dual ~scheduler ~receiver ~seed ~max_rounds =
  let levels = Baseline.Decay.levels_for ~delta':(Dual.delta' dual) in
  let rng = Prng.Rng.of_int seed in
  let nodes =
    Array.init (Dual.n dual) (fun v ->
        if v = receiver then Baseline.Harness.receiver ()
        else
          Baseline.Decay.node ~levels
            ~message:(M.payload ~src:v ~uid:0 ())
            ~rng:(Prng.Rng.split rng))
  in
  Baseline.Harness.first_reception ~dual ~scheduler ~nodes ~receiver ~max_rounds

(* A one-message flood over the abstract MAC layer: Serve over the
   batch [source], with the whole round budget as ttl so the message can
   only complete or run out of rounds.  The run's events stream through
   a one-slot sink into the spec auditor, and any validity violation,
   late ack or missing ack fails the trial: the §5 claim that LBAlg is
   an abstract MAC layer is checked where E11 and E18 report it.
   Returns the covered count and, if every node got it, the completion
   round. *)
let mac_flood ~params ~rng ~dual ~scheduler ~source ~max_rounds =
  let workload =
    Macapps.Workload.create
      ~process:(Batch { sources = [ source ] })
      ~n:(Dual.n dual) ~seed:0 ()
  in
  let sink = Obs.Sink.create ~capacity:1 () in
  let audit = L.Lb_obs.auditor ~dual ~params () in
  Obs.Sink.on_event sink (Obs.Audit.observe audit);
  let r =
    Macapps.Serve.run ~sink
      ~config:(Macapps.Serve.config ~ttl:max_rounds ())
      ~workload ~params ~rng ~dual ~scheduler ~rounds:max_rounds ()
  in
  Obs.Audit.finish audit;
  let a = Obs.Audit.report audit in
  if a.validity_violations + a.late_ack_count + a.missing_ack_count > 0 then
    failwith
      (Printf.sprintf
         "mac_flood: MAC contract broken on a %d-node flood (validity %d, \
          late acks %d, missing acks %d)"
         (Dual.n dual) a.validity_violations a.late_ack_count
         a.missing_ack_count);
  ( r.Macapps.Serve.first_receptions,
    if r.Macapps.Serve.completed = 1 then
      Some (int_of_float r.Macapps.Serve.delivery_max)
    else None )

let mean_option_latency ~max_rounds samples =
  let value = function Some l -> float_of_int l | None -> float_of_int max_rounds in
  Stats.Summary.mean (List.map value samples)

let starved samples = Stats.Experiment.count (fun s -> s = None) samples
