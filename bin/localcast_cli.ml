(* Command-line driver for the local broadcast layer.

   Subcommands:
     topo   — generate a dual graph and describe it
     seed   — run seed agreement and report the Seed spec outcome
     run    — run LBAlg under an oblivious scheduler and report the LB spec
     trace  — print a round-by-round execution transcript
     verify — CI-style specification check, non-zero exit on failure
     scale-smoke — tiled engine at size, with a tiling-invariant trace hash
     serve  — multi-message serving over the MAC: open-loop load, or a
              closed batch (batch:S is the flood)
     tournament — race back-off strategies (and LBAlg) with ranked tables

   Every run is a pure function of --seed, so reported numbers are
   reproducible. *)

open Core
open Cmdliner
module Dual = Dualgraph.Dual
module Geo = Dualgraph.Geometric
module Sch = Radiosim.Scheduler
module L = Localcast

(* --- shared arguments --- *)

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"INT" ~doc:"Master random seed.")

let n_arg =
  Arg.(value & opt int 30 & info [ "n"; "nodes" ] ~docv:"INT" ~doc:"Number of nodes.")

let width_arg =
  Arg.(
    value
    & opt float 4.0
    & info [ "width" ] ~docv:"FLOAT" ~doc:"Field width (and height).")

let r_arg =
  Arg.(
    value
    & opt float 1.5
    & info [ "r" ] ~docv:"FLOAT" ~doc:"Geographic parameter r (>= 1).")

let gray_arg =
  Arg.(
    value
    & opt float 0.5
    & info [ "gray" ] ~docv:"P"
        ~doc:"Probability a grey-zone pair gets an unreliable edge.")

let eps_arg =
  Arg.(
    value
    & opt float 0.1
    & info [ "eps" ] ~docv:"FLOAT" ~doc:"Error bound epsilon.")

(* Every bad input ends here: a one-line diagnostic and exit 2.  Flag
   and spec parse errors reach exit 2 through [Cmd.eval_value] below. *)
let bad_input msg =
  Format.eprintf "localcast: %s@." msg;
  exit 2

(* Set-up calls range-check their arguments, so their Invalid_argument
   (or Sys_error, for a file) is bad input.  Nothing else is wrapped: a
   failure inside a simulation still exits 125 with its backtrace. *)
let setup f = try f () with Invalid_argument msg | Sys_error msg -> bad_input msg

(* A round, phase or trial count: a negative one is bad input. *)
let count =
  Arg.conv'
    ( (fun s ->
        Result.bind (Grammar.int s) (fun k ->
            if k >= 0 then Ok k else Error (Printf.sprintf "%d is negative" k))),
      Format.pp_print_int )

let exits =
  Cmd.Exit.
    [ info 0 ~doc:"on success."; info 1 ~doc:"when a check fails.";
      info 2 ~doc:"on bad input."; info internal_error ~doc:"on unexpected internal errors (bugs)." ]

(* A flag choosing one entry of a name -> builder table.  It enumerates
   the names, not the builders: [Arg.enum] compares values to print the
   default in --help. *)
let kind_arg long table default ~doc =
  Arg.(
    value
    & opt (enum (List.map (fun (name, _) -> (name, name)) table)) default
    & info [ long ] ~docv:"KIND" ~doc)

let topologies =
  let rng = Prng.Rng.of_int in
  [
    ( "random",
      fun seed n width r gray ->
        Geo.random_field ~rng:(rng seed) ~n ~width ~height:width ~r
          ~gray_g':gray () );
    ( "grid",
      fun seed n _ r gray ->
        let side = max 1 (int_of_float (Float.round (sqrt (float_of_int n)))) in
        Geo.grid ~rows:side ~cols:side ~spacing:0.9 ~r ~gray_g':gray
          ~rng:(rng seed) () );
    ("clique", fun _ n _ _ _ -> Geo.clique n);
    ("line", fun _ n _ r _ -> Geo.line ~n ~spacing:0.9 ~r ());
    ( "gray-cluster",
      fun _ n _ r _ -> Geo.gray_cluster ~k:(max 1 (n - 2)) ~r:(Float.max r 1.41) () );
  ]

(* The dual graph, generated from the topology flags or --load'ed. *)
let topology =
  let kind =
    kind_arg "topology" topologies "random"
      ~doc:"Topology: random, grid, clique, line or gray-cluster."
  in
  let load =
    Arg.(
      value
      & opt (some string) None
      & info [ "load" ] ~docv:"FILE"
          ~doc:"Load the topology from a Dualgraph.Io file instead of generating it.")
  in
  let make kind seed n width r gray load =
    setup (fun () ->
        match load with
        | Some filename -> Dualgraph.Io.load filename
        | None -> List.assoc kind topologies seed n width r gray)
  in
  Term.(const make $ kind $ seed_arg $ n_arg $ width_arg $ r_arg $ gray_arg $ load)

let schedulers =
  [
    ("reliable-only", fun ~seed:_ ~p:_ -> Sch.reliable_only);
    ("all-edges", fun ~seed:_ ~p:_ -> Sch.all_edges);
    ("bernoulli", Sch.bernoulli);
    ("bernoulli-sparse", Sch.bernoulli_sparse);
    ("flicker", fun ~seed:_ ~p:_ -> Sch.flicker ~period:16 ~duty:8);
  ]

(* The oblivious link scheduler for a seed.  Every subcommand's scheduler
   comes through here, so --link-p is range-checked once for all. *)
let scheduler =
  let kind =
    kind_arg "scheduler" schedulers "bernoulli"
      ~doc:
        "Oblivious link scheduler: reliable-only, all-edges, bernoulli, \
         bernoulli-sparse (same distribution as bernoulli, resolved in \
         time proportional to the active set — the right choice for low \
         --link-p sweeps on large fields) or flicker."
  in
  let link_p =
    Arg.(
      value & opt float 0.5
      & info [ "link-p" ] ~docv:"P"
          ~doc:
            "Per-round inclusion probability of each unreliable edge under the \
             bernoulli and bernoulli-sparse schedulers (ignored by the \
             others).")
  in
  let make kind p =
    if not (p >= 0.0 && p <= 1.0) then
      bad_input (Printf.sprintf "--link-p must be in [0, 1], got %g" p);
    fun ~seed -> List.assoc kind schedulers ~seed ~p
  in
  Term.(const make $ kind $ link_p)

let phases_arg =
  Arg.(
    value & opt count 6
    & info [ "phases" ] ~docv:"INT" ~doc:"Number of LBAlg phases to simulate.")

(* A spec flag read by its module's parser, so a bad spec is a parse
   error like any other bad flag value. *)
let spec_arg ?(docv = "SPEC") parse print long ~doc =
  Arg.(value & opt (some (conv' (parse, print))) None & info [ long ] ~docv ~doc)

let reception_arg =
  spec_arg Radiosim.Reception.of_spec (fun ppf m ->
      Format.pp_print_string ppf (Radiosim.Reception.to_spec m))
    "reception"

let reception_of = function
  | None -> Radiosim.Reception.dual_graph
  | Some m ->
      Format.printf "reception %a@." Radiosim.Reception.pp m;
      m

(* --- topo --- *)

let topo_cmd =
  let render_arg =
    Arg.(value & flag & info [ "render" ] ~doc:"Print an ASCII sketch of the field.")
  in
  let histogram_arg =
    Arg.(value & flag & info [ "degrees" ] ~doc:"Print the reliable-degree histogram.")
  in
  let save_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "save" ] ~docv:"FILE" ~doc:"Write the topology to FILE (Dualgraph.Io format).")
  in
  let run dual render degrees save =
    Format.printf "%a@." Dual.pp dual;
    (match Dual.embedding dual with
    | Some _ ->
        let regions = Dualgraph.Region.of_dual dual in
        Format.printf "occupied half-unit regions: %d (largest holds %d nodes)@."
          (Dualgraph.Region.region_count regions)
          (Dualgraph.Region.max_members regions)
    | None -> ());
    if Dualgraph.Graph.is_connected (Dual.g dual) then
      Format.printf "G is connected, diameter %d@."
        (Dualgraph.Graph.diameter (Dual.g dual))
    else Format.printf "G is disconnected@.";
    if render then
      (match Dual.embedding dual with
      | Some _ -> print_string (Dualgraph.Render.field dual)
      | None -> print_endline "(no embedding to render)");
    if degrees then print_string (Dualgraph.Render.degree_histogram dual);
    match save with
    | Some filename ->
        Dualgraph.Io.save dual ~filename;
        Format.printf "saved to %s@." filename
    | None -> ()
  in
  Cmd.v
    (Cmd.info "topo" ~exits ~doc:"Generate, describe, render or save a dual graph topology.")
    Term.(
      const run $ topology $ render_arg $ histogram_arg $ save_arg)

(* --- seed --- *)

let seed_cmd =
  let run dual seed r eps =
    let n = Dual.n dual in
    Format.printf "%a@." Dual.pp dual;
    let params =
      setup (fun () -> L.Params.make_seed ~eps ~delta:(Dual.delta dual) ~kappa:32 ())
    in
    Format.printf "%a@." L.Params.pp_seed params;
    let rng = Prng.Rng.of_int (seed + 1) in
    let nodes = L.Seed_alg.network params ~rng ~n in
    let trace, observer = Radiosim.Trace.recorder () in
    let (_ : int) =
      Radiosim.Engine.run ~observer ~dual
        ~scheduler:(Sch.bernoulli ~seed ~p:0.5)
        ~nodes
        ~env:(Radiosim.Env.null ~name:"seed" ())
        ~rounds:(L.Seed_alg.duration params)
        ()
    in
    let decisions = L.Seed_spec.decisions_of_trace trace ~n in
    let delta_bound =
      max 1 (int_of_float (Float.ceil (6.0 *. r *. r *. (log (1.0 /. eps) /. log 2.0))))
    in
    let report = L.Seed_spec.check ~dual ~delta_bound ~decisions in
    Format.printf
      "well-formed=%b consistent=%b  max owners per neighborhood=%d (bound \
       delta=%d, violations=%d)@."
      report.L.Seed_spec.well_formed report.L.Seed_spec.consistent
      report.L.Seed_spec.max_owners delta_bound report.L.Seed_spec.violation_count
  in
  Cmd.v
    (Cmd.info "seed" ~exits ~doc:"Run the SeedAlg seed agreement protocol.")
    Term.(
      const run $ topology $ seed_arg $ r_arg $ eps_arg)

(* --- run --- *)

let run_cmd =
  let senders_arg =
    Arg.(
      value & opt (list int) [ 0 ]
      & info [ "senders" ] ~docv:"IDS" ~doc:"Comma-separated sender vertices.")
  in
  let tack_arg =
    Arg.(
      value & opt (some int) None
      & info [ "tack-phases" ] ~docv:"INT"
          ~doc:"Override the derived Tack phase count.")
  in
  let events_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "events" ] ~docv:"FILE"
          ~doc:"Write the run's full event stream to FILE as JSONL.")
  in
  let metrics_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics" ] ~docv:"FILE"
          ~doc:
            "Write per-phase metric snapshots to FILE (the BENCH_obs.json \
             artifact format).")
  in
  let audit_arg =
    Arg.(
      value & flag
      & info [ "audit" ]
          ~doc:
            "Run the online spec auditor over the event stream and report \
             t_ack / t_prog deadline misses and delta-bound breaches.")
  in
  let faults_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "faults" ] ~docv:"SPEC"
          ~doc:
            "Inject faults: ';'-separated clauses crash:NODE@ROUND, \
             restart:NODE@ROUND, jam:NODE@FROM-UNTIL or \
             churn:RATE[,DOWNTIME] (e.g. 'crash:3@10;restart:3@40' or \
             'churn:0.002,120').  Churn is derived deterministically from \
             --seed; spec accounting becomes survivor-relative (see \
             docs/FAULTS.md).")
  in
  let reception_arg =
    reception_arg
      ~doc:
        "Reception model: 'dual' (the paper's dual-graph collision rule, \
         the default) or 'sinr[:key=value,...]' — physical interference \
         over the topology's embedding, with keys alpha, beta, noise, \
         power, jam, near (e.g. 'sinr:alpha=4,beta=2').  See \
         docs/RECEPTION.md."
  in
  let run dual scheduler seed eps phases senders tack events metrics_path audit
      faults_spec reception =
    let n = Dual.n dual in
    Format.printf "%a@." Dual.pp dual;
    let params = setup (fun () -> L.Params.of_dual ?tack_phases:tack ~eps1:eps dual) in
    Format.printf "%a@.@." L.Params.pp params;
    let rng = Prng.Rng.of_int (seed + 1) in
    let nodes = L.Lb_alg.network params ~rng ~n in
    let senders = List.filter (fun v -> v >= 0 && v < n) senders in
    let envt = L.Lb_env.saturate ~n ~senders () in
    let rounds = phases * params.L.Params.phase_len in
    let faults =
      match faults_spec with
      | None -> None
      | Some spec -> (
          match Faults.Plan.of_spec ~seed ~n ~rounds spec with
          | Ok plan ->
              Format.printf "%a@." Faults.Plan.pp plan;
              Some plan
          | Error msg -> bad_input msg)
    in
    let revive =
      match faults with
      | None -> None
      | Some _ -> Some (L.Service.reviver ~params ~seed ())
    in
    let reception = reception_of reception in
    (* Observability wiring: any of --events/--metrics/--audit needs the
       event stream, so they share one sink sized to the whole run. *)
    let want_obs = events <> None || metrics_path <> None || audit in
    let sink =
      if want_obs then
        Some (Obs.Sink.create ~capacity:(max 65536 (rounds * ((2 * n) + 8))) ())
      else None
    in
    let registry =
      match metrics_path with Some _ -> Some (Obs.Metrics.create ()) | None -> None
    in
    let auditor =
      if audit then begin
        let a = L.Lb_obs.auditor ~dual ~params () in
        (match sink with
        | Some s -> Obs.Sink.on_event s (Obs.Audit.observe a)
        | None -> ());
        Some a
      end
      else None
    in
    let monitor, obs, observer =
      L.Lb_obs.wire ~faults ~sink ~metrics:registry ~observer:None ~dual ~params
    in
    let executed, secs =
      Stats.Experiment.time (fun () ->
          Radiosim.Engine.run ~observer ?sink
            ?metrics:registry ?faults ?revive ~reception ~dual
            ~scheduler:(scheduler ~seed) ~nodes ~env:(L.Lb_env.env envt)
            ~rounds ())
    in
    let report = L.Lb_spec.finish monitor in
    Format.printf "executed %d rounds in %.2fs@." executed secs;
    Format.printf
      "validity violations=%d  acks=%d (late=%d missing=%d max latency=%d)@."
      report.L.Lb_spec.validity_violations report.L.Lb_spec.ack_count
      report.L.Lb_spec.late_ack_count report.L.Lb_spec.missing_ack_count
      report.L.Lb_spec.max_ack_latency;
    Format.printf "reliability %d/%d (%.1f%%)  progress %d/%d (%.1f%%)@."
      (report.L.Lb_spec.reliability_attempts - report.L.Lb_spec.reliability_failures)
      report.L.Lb_spec.reliability_attempts
      (100.0 *. L.Lb_spec.reliability_rate report)
      (report.L.Lb_spec.progress_opportunities - report.L.Lb_spec.progress_failures)
      report.L.Lb_spec.progress_opportunities
      (100.0 *. L.Lb_spec.progress_rate report);
    (match auditor with
    | None -> ()
    | Some a ->
        Obs.Audit.finish a;
        let violations = Obs.Audit.violations a in
        Format.printf "audit: %d violation%s over %d rounds of events@."
          (List.length violations)
          (if List.length violations = 1 then "" else "s")
          (Obs.Audit.rounds_seen a);
        List.iteri
          (fun i v ->
            if i < 20 then Format.printf "  %a@." Obs.Audit.pp_violation v)
          violations;
        if List.length violations > 20 then
          Format.printf "  ... and %d more@." (List.length violations - 20));
    (match (events, sink) with
    | Some path, Some s ->
        Obs.Sink.save_jsonl s ~path;
        Format.printf "wrote %d events to %s (%d emitted, %d dropped)@."
          (Obs.Sink.length s) path (Obs.Sink.emitted s) (Obs.Sink.dropped s)
    | _ -> ());
    match (metrics_path, obs, registry) with
    | Some path, Some o, Some reg ->
        let snapshots =
          L.Lb_obs.snapshots o @ [ Obs.Metrics.snapshot ~label:"final" reg ]
        in
        Obs.Metrics.write_json ~path snapshots;
        Format.printf "wrote %d metric snapshots to %s@."
          (List.length snapshots) path
    | _ -> ()
  in
  Cmd.v
    (Cmd.info "run" ~exits ~doc:"Run the LBAlg local broadcast service.")
    Term.(
      const run $ topology $ scheduler $ seed_arg $ eps_arg $ phases_arg
      $ senders_arg $ tack_arg $ events_arg $ metrics_arg $ audit_arg
      $ faults_arg $ reception_arg)

(* --- trace --- *)

(* --- scale-smoke: the tiled engine at size, with a trace digest --- *)

let scale_cmd =
  let rounds_arg =
    Arg.(
      value & opt count 20
      & info [ "rounds" ] ~docv:"INT" ~doc:"Number of rounds to run.")
  in
  let tiles_arg =
    Arg.(
      value & opt int 1
      & info [ "tiles" ] ~docv:"INT"
        ~doc:
          "Tile (domain) count for the tiled engine.  The printed trace \
           hash is identical at every value — run twice with different \
           --tiles and compare (CI does exactly that).")
  in
  let scale_n_arg =
    Arg.(
      value & opt int 100_000
      & info [ "n"; "nodes" ] ~docv:"INT" ~doc:"Number of nodes.")
  in
  let scale_reception_arg =
    reception_arg
      ~doc:
        "Reception model: 'dual' (the default) or 'sinr[:key=value,...]' \
         — physical interference over the field's embedding (e.g. \
         'sinr:alpha=3,beta=1.2,noise=0.02').  The trace hash stays \
         --tiles-invariant under either model.  See docs/RECEPTION.md."
  in
  let run seed n rounds tiles reception =
    let reception = reception_of reception in
    if tiles < 1 then bad_input "--tiles must be >= 1";
    (* Constant-density field: one node per unit square, r = 1, so Δ is
       independent of n and cost flatness is visible directly. *)
    let side = sqrt (float_of_int n) in
    let t0 = Unix.gettimeofday () in
    let dual =
      setup (fun () ->
          Geo.random_field
            ~rng:(Prng.Rng.of_int seed)
            ~n ~width:side ~height:side ~r:1.0 ~gray_g':0.5 ())
    in
    let t_topo = Unix.gettimeofday () -. t0 in
    let node_rng = Prng.Rng.of_int (seed + 1) in
    let nodes =
      Array.init n (fun src ->
          Baseline.Uniform.node ~p:0.01
            ~message:(L.Messages.payload ~src ~uid:0 ())
            ~rng:(Prng.Rng.split node_rng))
    in
    (* FNV-1a over every round's actions and deliveries: an
       order-sensitive digest of the observable trace. *)
    let hash = ref 0xcbf29ce48422325 in
    let fnv x = hash := (!hash lxor x) * 0x100000001b3 in
    let observer record =
      fnv record.Radiosim.Trace.round;
      Array.iter
        (fun a ->
          fnv
            (match a with
            | Radiosim.Process.Transmit (L.Messages.Data p) -> 3 + p.L.Messages.src
            | Radiosim.Process.Transmit _ -> 2
            | Radiosim.Process.Listen -> 1))
        record.Radiosim.Trace.actions;
      Array.iter
        (fun d ->
          fnv
            (match d with
            | Some (L.Messages.Data p) -> 3 + p.L.Messages.src
            | Some _ -> 2
            | None -> 1))
        record.Radiosim.Trace.delivered
    in
    let t1 = Unix.gettimeofday () in
    let executed =
      Radiosim.Tiled.run ~observer ~tiles ~reception ~dual
        ~scheduler:(Sch.bernoulli_sparse ~seed ~p:0.02)
        ~nodes
        ~env:(Radiosim.Env.null ~name:"scale-smoke" ())
        ~rounds ()
    in
    let t_run = Unix.gettimeofday () -. t1 in
    let rss_mb =
      try
        let ic = open_in "/proc/self/status" in
        let rec scan () =
          match input_line ic with
          | line when String.length line > 6 && String.sub line 0 6 = "VmRSS:" ->
              let v =
                String.trim (String.sub line 6 (String.length line - 6))
              in
              let kb =
                match String.split_on_char ' ' v with
                | x :: _ -> float_of_string x
                | [] -> nan
              in
              close_in ic;
              Some (kb /. 1024.0)
          | _ -> scan ()
          | exception End_of_file ->
              close_in ic;
              None
        in
        scan ()
      with _ -> None
    in
    Format.printf "n=%d rounds=%d tiles=%d seed=%d@." n executed tiles seed;
    Format.printf "topology: %.3fs  run: %.3fs  (%.1f ns/node/round)@." t_topo
      t_run
      (t_run *. 1e9 /. float_of_int (max 1 (n * executed)));
    (match rss_mb with
    | Some mb -> Format.printf "rss: %.1f MB@." mb
    | None -> Format.printf "rss: n/a@.");
    Format.printf "trace-hash: %016x@." (!hash land max_int)
  in
  Cmd.v
    (Cmd.info "scale-smoke" ~exits
       ~doc:
         "Run the tiled engine on a constant-density field and print \
          wall-clock, resident memory and an order-sensitive trace hash.  \
          The hash is invariant under --tiles; CI compares a 1-tile and a \
          2-tile run at n=10^5 under both reception models.")
    Term.(
      const run $ seed_arg $ scale_n_arg $ rounds_arg $ tiles_arg
      $ scale_reception_arg)

let trace_cmd =
  let rounds_arg =
    Arg.(
      value & opt count 60
      & info [ "rounds" ] ~docv:"INT" ~doc:"Number of rounds to trace.")
  in
  let from_arg =
    Arg.(
      value & opt int 0
      & info [ "from" ] ~docv:"ROUND" ~doc:"First round to print.")
  in
  let node_filter_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "node" ] ~docv:"ID" ~doc:"Only print events involving this node.")
  in
  let run dual seed eps rounds from node_filter =
    let n = Dual.n dual in
    let params = setup (fun () -> L.Params.of_dual ~eps1:eps ~tack_phases:2 dual) in
    Format.printf "%a@." Dual.pp dual;
    Format.printf "phase structure: Ts=%d Tprog=%d phase_len=%d@.@."
      params.L.Params.ts params.L.Params.tprog params.L.Params.phase_len;
    let rng = Prng.Rng.of_int (seed + 1) in
    let nodes = L.Lb_alg.network params ~rng ~n in
    let envt = L.Lb_env.saturate ~n ~senders:[ 0 ] () in
    let trace, observer = Radiosim.Trace.recorder () in
    let (_ : int) =
      Radiosim.Engine.run ~observer ~dual
        ~scheduler:(Sch.bernoulli ~seed ~p:0.5)
        ~nodes ~env:(L.Lb_env.env envt) ~rounds ()
    in
    let wants v = match node_filter with None -> true | Some w -> w = v in
    Radiosim.Trace.iter
      (fun record ->
        if record.Radiosim.Trace.round >= from then begin
          let interesting = ref [] in
          Array.iteri
            (fun v action ->
              match action with
              | Radiosim.Process.Transmit m when wants v ->
                  interesting :=
                    Format.asprintf "%d!%a" v L.Messages.pp_msg m :: !interesting
              | _ -> ())
            record.Radiosim.Trace.actions;
          Array.iteri
            (fun v delivered ->
              match delivered with
              | Some m when wants v ->
                  interesting :=
                    Format.asprintf "%d<-%a" v L.Messages.pp_msg m :: !interesting
              | _ -> ())
            record.Radiosim.Trace.delivered;
          Array.iteri
            (fun v outs ->
              if wants v then
                List.iter
                  (fun out ->
                    interesting :=
                      Format.asprintf "%d:%a" v L.Messages.pp_lb_output out
                      :: !interesting)
                  outs)
            record.Radiosim.Trace.outputs;
          if !interesting <> [] then begin
            let kind =
              if L.Lb_alg.is_preamble_round params record.Radiosim.Trace.round
              then "pre "
              else "body"
            in
            Format.printf "r%-5d %s  %s@." record.Radiosim.Trace.round kind
              (String.concat "  " (List.rev !interesting))
          end
        end)
      trace
  in
  Cmd.v
    (Cmd.info "trace" ~exits
       ~doc:
         "Dump a round-by-round event trace of an LBAlg run (transmissions, \
          receptions, outputs).")
    Term.(
      const run $ topology $ seed_arg $ eps_arg $ rounds_arg $ from_arg
      $ node_filter_arg)

(* --- verify --- *)

let verify_cmd =
  let run dual scheduler seed eps =
    let params = setup (fun () -> L.Params.of_dual ~eps1:eps ~tack_phases:3 dual) in
    Format.printf "%a@." Dual.pp dual;
    let failures = ref [] in
    let fail fmt = Format.kasprintf (fun s -> failures := s :: !failures) fmt in
    (* service guarantees under a saturated sender set *)
    let senders =
      List.filteri (fun i _ -> i mod 4 = 0) (List.init (Dual.n dual) Fun.id)
    in
    let outcome =
      L.Service.run ~scheduler:(scheduler ~seed) ~dual ~params ~senders
        ~phases:6 ~seed ()
    in
    let report = outcome.L.Service.report in
    if report.L.Lb_spec.validity_violations > 0 then
      fail "validity violations: %d" report.L.Lb_spec.validity_violations;
    if report.L.Lb_spec.late_ack_count > 0 then
      fail "late acks: %d" report.L.Lb_spec.late_ack_count;
    if report.L.Lb_spec.missing_ack_count > 0 then
      fail "missing acks: %d" report.L.Lb_spec.missing_ack_count;
    let progress = L.Lb_spec.progress_rate report in
    if progress < 1.0 -. eps then
      fail "progress rate %.4f below 1 - eps = %.4f" progress (1.0 -. eps);
    let reliability = L.Lb_spec.reliability_rate report in
    if reliability < 1.0 -. eps then
      fail "reliability rate %.4f below 1 - eps = %.4f" reliability (1.0 -. eps);
    (* seed agreement spec on the same topology *)
    let seed_params =
      L.Params.make_seed ~eps:params.L.Params.eps2 ~delta:(Dual.delta dual)
        ~kappa:16 ()
    in
    let rng = Prng.Rng.of_int (seed + 2) in
    let nodes = L.Seed_alg.network seed_params ~rng ~n:(Dual.n dual) in
    let trace, observer = Radiosim.Trace.recorder () in
    let (_ : int) =
      Radiosim.Engine.run ~observer ~dual ~scheduler:(scheduler ~seed) ~nodes
        ~env:(Radiosim.Env.null ~name:"verify" ())
        ~rounds:(L.Seed_alg.duration seed_params)
        ()
    in
    let decisions = L.Seed_spec.decisions_of_trace trace ~n:(Dual.n dual) in
    let seed_report =
      L.Seed_spec.check ~dual ~delta_bound:params.L.Params.delta_bound ~decisions
    in
    if not seed_report.L.Seed_spec.well_formed then fail "seed spec: not well-formed";
    if not seed_report.L.Seed_spec.consistent then fail "seed spec: inconsistent";
    if seed_report.L.Seed_spec.violation_count > 0 then
      fail "seed agreement violations: %d (max owners %d > delta %d)"
        seed_report.L.Seed_spec.violation_count seed_report.L.Seed_spec.max_owners
        params.L.Params.delta_bound;
    match !failures with
    | [] ->
        Format.printf
          "OK: LB spec (progress %.2f%%, reliability %.2f%%, %d acks) and Seed \
           spec (max owners %d <= %d) hold@."
          (100.0 *. progress) (100.0 *. reliability) report.L.Lb_spec.ack_count
          seed_report.L.Seed_spec.max_owners params.L.Params.delta_bound
    | problems ->
        List.iter (fun s -> Format.printf "FAIL: %s@." s) (List.rev problems);
        exit 1
  in
  Cmd.v
    (Cmd.info "verify" ~exits
       ~doc:
         "Run the service on a topology and exit non-zero unless every \
          specification check passes (CI-style).")
    Term.(
      const run $ topology $ scheduler $ seed_arg $ eps_arg)

(* --- serve: the open-loop multi-message serving engine --- *)

let serve_cmd =
  let workload_arg =
    Arg.(
      value
      & opt
          (conv' (Macapps.Workload.parse, Macapps.Workload.pp_process))
          (Macapps.Workload.Poisson { rate = 0.002 })
      & info [ "workload" ] ~docv:"SPEC"
          ~doc:
            "Arrival process: poisson:RATE, bursty:RATE:ON_MEAN:OFF_MEAN, \
             hotspot:RATE:HOT_FRACTION:HOT_SHARE (RATE in messages per round, \
             network-wide) or batch:S1,S2,... (one message per listed \
             source at round 0; the run stops once none is in flight, and \
             batch:S is the flood from S).  See docs/LOAD.md.")
  in
  let policy_arg =
    Arg.(
      value
      & opt
          (conv' (Macapps.Serve.parse_policy, Macapps.Serve.pp_policy))
          Macapps.Serve.Drop_tail
      & info [ "policy" ] ~docv:"POLICY"
          ~doc:
            "Backpressure policy: drop-tail, drop-newest or source-throttle.")
  in
  let rounds_arg =
    Arg.(
      value & opt count 40_000
      & info [ "rounds" ] ~docv:"INT" ~doc:"Number of rounds to serve.")
  in
  let queue_cap_arg =
    Arg.(
      value & opt int 8
      & info [ "queue-cap" ] ~docv:"INT" ~doc:"Per-node relay queue bound.")
  in
  let inflight_arg =
    Arg.(
      value & opt int 512
      & info [ "max-inflight" ] ~docv:"INT"
          ~doc:"Slot pool size: admission cap on concurrently live messages.")
  in
  let ttl_arg =
    Arg.(
      value & opt int 30_000
      & info [ "ttl" ] ~docv:"INT"
          ~doc:"Rounds a message may live before it is expired.")
  in
  let run dual scheduler seed eps process policy rounds queue_cap max_inflight
      ttl =
    let n = Dual.n dual in
    Format.printf "%a@." Dual.pp dual;
    let params, config, wl =
      setup (fun () ->
          ( L.Params.of_dual ~eps1:eps ~tack_phases:2 dual,
            Macapps.Serve.config ~queue_cap ~max_inflight ~ttl ~policy (),
            Macapps.Workload.create ~process ~n ~seed () ))
    in
    Format.printf
      "serving %a under %a for %d rounds (f_ack = %d rounds)@."
      Macapps.Workload.pp_process process Macapps.Serve.pp_policy policy rounds
      (L.Params.t_ack_rounds params);
    let report =
      Macapps.Serve.run ~config ~workload:wl ~params
        ~rng:(Prng.Rng.of_int (seed + 1))
        ~dual ~scheduler:(scheduler ~seed) ~rounds ()
    in
    Format.printf "%a@." Macapps.Serve.pp_report report;
    (* CI-style gating: a serving run must conserve messages exactly and
       actually complete something *)
    if report.Macapps.Serve.audit <> [] then begin
      List.iter
        (fun s -> Format.printf "FAIL: audit: %s@." s)
        report.Macapps.Serve.audit;
      exit 1
    end;
    if report.Macapps.Serve.completed = 0 then begin
      Format.printf
        "FAIL: zero goodput (no message completed; raise --ttl or lower the \
         offered rate)@.";
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "serve" ~exits
       ~doc:
         "Serve an open-loop multi-message workload over the abstract MAC \
          layer and print the serving report (admission, completion, \
          latency percentiles, queue depths, allocation probe).  Exits \
          non-zero if the conservation audit fails or nothing completes \
          (CI-style).")
    Term.(
      const run $ topology $ scheduler $ seed_arg $ eps_arg $ workload_arg
      $ policy_arg $ rounds_arg $ queue_cap_arg $ inflight_arg $ ttl_arg)

(* --- tournament --- *)

let tournament_cmd =
  let module S = Baseline.Strategy in
  let module T = Baseline.Tournament in
  let module Rank = Stats.Rank in
  let trials_arg =
    Arg.(
      value & opt count 12
      & info [ "trials" ] ~docv:"INT"
          ~doc:"Paired trials per arm (same seeds across arms).")
  in
  let fault_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "fault" ] ~docv:"SPEC"
          ~doc:
            "Fault plan applied verbatim to every trial, in the Faults.Plan \
             grammar (e.g. churn:0.05,817 or jam:3@0-100), derived from each \
             trial seed.  Note the sender is not exempt (the E25 bench \
             cells protect it); a crashed sender usually zeroes lbalg's \
             coverage.")
  in
  let label = function T.Strategy t -> S.to_spec t | T.Lbalg -> "lbalg" in
  let arms_arg =
    let arm spec =
      if String.lowercase_ascii (String.trim spec) = "lbalg" then Ok T.Lbalg
      else Result.map (fun t -> T.Strategy t) (S.parse spec)
    in
    spec_arg (Grammar.list arm)
      (fun ppf arms ->
        Format.pp_print_string ppf (String.concat "," (List.map label arms)))
      "arms" ~docv:"LIST"
      ~doc:
        "Comma-separated arms: strategy specs (fixed:P, decay:L, \
         decay-restart:L, sawtooth:L, backoff:K, slotted:N) and/or \
         lbalg.  Default: the full zoo sized for the topology, plus \
         lbalg."
  in
  let adaptive_arg =
    Arg.(
      value & flag
      & info [ "adaptive" ]
          ~doc:
            "Use the adaptive jamming adversary instead of an oblivious \
             scheduler (LBAlg is skipped: the paper's guarantees are \
             oblivious-only).")
  in
  let run dual scheduler seed trials fault arms adaptive =
    let n = Dual.n dual in
    Format.printf "%a@." Dual.pp dual;
    let adversary = if adaptive then T.Adaptive_jam else T.Oblivious scheduler in
    let base = setup (fun () -> T.arena ~adversary ~dual ()) in
    let arena =
      match fault with
      | None -> base
      | Some spec ->
          let plan_of ~seed =
            match
              Faults.Plan.of_spec ~seed ~n ~rounds:base.T.horizon spec
            with
            | Ok plan -> plan
            | Error e -> bad_input e
          in
          (* Surface a bad grammar before the trial loop. *)
          ignore (plan_of ~seed);
          { base with T.plan_of = Some plan_of }
    in
    let arms = match arms with None -> T.arms ~dual | Some arms -> arms in
    Format.printf
      "tournament: %d arm%s x %d paired trial%s, horizon %d rounds, budget \
       %d, %s adversary%s@."
      (List.length arms)
      (if List.length arms = 1 then "" else "s")
      trials
      (if trials = 1 then "" else "s")
      arena.T.horizon arena.T.budget
      (if adaptive then "adaptive-jam" else "oblivious")
      (match fault with None -> "" | Some s -> ", faults " ^ s);
    let cells =
      List.filter_map
        (fun arm ->
          let samples =
            List.filter_map
              (fun i -> T.trial arena arm ~seed:(seed + i))
              (List.init trials (fun i -> i))
          in
          if samples = [] then begin
            Format.printf "  (no samples for %s — skipped)@." (label arm);
            None
          end
          else Some (label arm, samples))
        arms
    in
    if cells = [] then begin
      Format.eprintf "no arm produced a sample (whole neighborhood dead?)@.";
      exit 1
    end;
    let metric name ~descending project =
      let ranked =
        Rank.table ~descending ~tie_eps:1e-9 ~seed:(seed + Hashtbl.hash name)
          (List.map
             (fun (l, samples) ->
               (l, Array.of_list (List.map project samples)))
             cells)
      in
      let table =
        Stats.Table.create
          ~title:(Printf.sprintf "%s (%s is better)" name
                    (if descending then "higher" else "lower"))
          ~columns:[ "rank"; "arm"; "trials"; "mean [95% CI]" ]
      in
      List.iter
        (fun row ->
          Stats.Table.add_row table
            [
              Stats.Table.cell_int row.Rank.rank;
              row.Rank.label;
              Stats.Table.cell_int row.Rank.count;
              Printf.sprintf "%.3f [%.3f, %.3f]" row.Rank.ci.Rank.mean
                row.Rank.ci.Rank.lower row.Rank.ci.Rank.upper;
            ])
        ranked;
      Stats.Table.print table
    in
    metric "coverage" ~descending:true (fun s -> s.T.coverage);
    metric "first-reception latency" ~descending:false (fun s -> s.T.latency);
    metric "transmission cost" ~descending:false (fun s -> s.T.cost)
  in
  Cmd.v
    (Cmd.info "tournament" ~exits
       ~doc:
         "Race back-off strategies (and LBAlg) on one topology under a \
          chosen adversary and fault plan: paired-seed trials, one ranked \
          table per metric (coverage, first-reception latency, transmission \
          cost) with seeded bootstrap confidence intervals.  The full \
          strategy x adversary x fault x topology matrix is experiment E25 \
          (bench/main.exe --only e25).")
    Term.(
      const run $ topology $ scheduler $ seed_arg $ trials_arg $ fault_arg
      $ arms_arg $ adaptive_arg)

let () =
  let doc = "Local broadcast layer for unreliable (dual graph) radio networks" in
  let cmd =
    Cmd.group
      (Cmd.info "localcast" ~doc ~exits)
      [ topo_cmd; seed_cmd; run_cmd; trace_cmd; verify_cmd;
        scale_cmd; serve_cmd; tournament_cmd ]
  in
  exit
    (match Cmd.eval_value cmd with
    | Ok (`Ok () | `Help | `Version) -> 0
    | Error (`Parse | `Term) -> 2
    | Error `Exn -> Cmd.Exit.internal_error)
