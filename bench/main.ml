(* Experiment harness entry point.

   Regenerates every experiment table in EXPERIMENTS.md:

     E1-E4   seed agreement (Theorem 3.1, Seed spec)
     E5-E7   local broadcast (Theorem 4.1, Lemma C.1)
     E8      the oblivious-adversary attack on fixed schedules (Discussion)
     E9      true locality: guarantees independent of n (§1)
     E10     seed-refresh ablation (§4.2 remark)
     E11     abstract MAC layer flood (§1, §5)
     E12     region goodness and leader counts (Appendix B)
     E13     oblivious vs adaptive link scheduling ([11])
     E14     loose coordination vs a global-seed oracle (ablation)
     E15     sustained throughput vs offered load (open-loop workloads)
     E16     near-optimality demos (Ω(log Δ) progress, Ω(Δ) ack)
     E17     SeedAlg vs gossip seed agreement (baseline)
     E18     physical-layer flood vs MAC-layer flood
     E19     the geographic parameter r
     E20     crash/restart churn: ack-driven recovery vs a fixed budget
     E21     tiled engine at scale: flat per-node cost to n = 10^6
     E22     multi-message serving under rate x burstiness x policy
     E23     reception models: dual-graph vs SINR physical interference
             on the same embeddings (also the reception CI smoke)
     E24     SINR reception at scale: output-sensitive kernels to n = 10^6
     E25     back-off strategy tournament: strategy x adversary x fault
             plan x topology, ranked with bootstrap CIs (also the
             tournament CI smoke: quick mode hard-fails on an ordering
             inversion in the churn anchor cell)
     obs     observability layer: event stream, metrics artifact, and the
             online auditor cross-checked against Lb_spec (writes
             BENCH_obs.json and BENCH_obs_events.jsonl)
     micro   Bechamel micro-benchmarks M1-M14 (also writes BENCH_micro.json)
     service serving-engine benchmarks M10-M11 + the 10^6-arrival load
             acceptance run (writes BENCH_service.json)

   Usage:
     dune exec bench/main.exe                # everything, full trials
     dune exec bench/main.exe -- --quick     # reduced trials; BENCH_* files go to _build/
     dune exec bench/main.exe -- --only e8   # one experiment group
*)

let groups : (string * (unit -> unit)) list =
  [
    ("e1-e4", Exp_seed.run);
    ("e5-e7", Exp_lb.run);
    ("e8", Exp_adversary.run);
    ("e9", Exp_locality.run);
    ("e10", Exp_ablation.run);
    ("e11", Exp_mac.run);
    ("e12", Exp_regions.run);
    ("e13", Exp_adaptive.run);
    ("e14", Exp_oracle.run);
    ("e15", Exp_throughput.run);
    ("e16", Exp_optimality.run);
    ("e17", Exp_seed_baseline.run);
    ("e18", Exp_flood.run);
    ("e19", Exp_geo.run);
    ("e20", Exp_churn.run);
    ("e21", Exp_scale.run);
    ("e22", Exp_load.run);
    ("e23", Exp_reception.run);
    ("e24", Exp_scale.run_e24);
    ("e25", Exp_tournament.run);
    ("obs", Exp_obs.run);
    ("micro", Micro.run);
    ("service", Exp_service.run);
  ]

let group_for token =
  let token = String.lowercase_ascii token in
  List.filter
    (fun (name, _) ->
      name = token
      || (* e.g. --only e6 matches the e5-e7 group *)
      List.mem token (String.split_on_char '-' name)
      ||
      match (token, name) with
      | ("e2", "e1-e4") | ("e3", "e1-e4") | ("e6", "e5-e7") -> true
      | _ -> false)
    groups

let () =
  let only = ref [] in
  let spec =
    [
      ( "--only",
        Arg.String (fun s -> only := s :: !only),
        "GROUP run only this experiment group (e1-e4, e5-e7, e8, e9, e10, e11, \
         e12, e13, e14, e15, e16, e17, e18, e19, e20, e21, e22, e23, e24, \
         e25, obs, micro, service); repeatable" );
      ( "--quick",
        Arg.Set Exp_common.quick,
        " reduced trial counts; writes the BENCH_* files under _build/" );
      ( "--domains",
        Arg.Int
          (fun d ->
            if d < 1 then raise (Arg.Bad "--domains: need at least 1 domain");
            Exp_common.domains := d),
        "N worker domains for trial execution (default 1, or \
         LOCALCAST_DOMAINS); tables are bit-identical at any value" );
    ]
  in
  Arg.parse spec
    (fun s -> raise (Arg.Bad ("unexpected argument " ^ s)))
    "bench/main.exe [--quick] [--domains N] [--only GROUP]";
  let selected =
    match !only with
    | [] -> groups
    | tokens ->
        let picked = List.concat_map group_for tokens in
        if picked = [] then begin
          prerr_endline "no experiment group matches --only selection";
          exit 1
        end
        else
          (* preserve canonical order, drop duplicates *)
          List.filter (fun g -> List.memq g picked) groups
  in
  Printf.printf
    "Local broadcast layer: experiment harness (master seed %d%s, %d domain%s)\n%!"
    Exp_common.master_seed
    (if !Exp_common.quick then ", quick mode" else "")
    !Exp_common.domains
    (if !Exp_common.domains = 1 then "" else "s");
  let total_start = Unix.gettimeofday () in
  List.iter
    (fun (name, run) ->
      let start = Unix.gettimeofday () in
      run ();
      Printf.printf "[%s done in %.1fs]\n%!" name (Unix.gettimeofday () -. start))
    selected;
  Printf.printf "\nall selected experiments done in %.1fs\n"
    (Unix.gettimeofday () -. total_start)
