(* Aggregated alcotest entry point: one section per library. *)

let () =
  Alcotest.run "local-broadcast-layer"
    [
      ("prng", Test_prng.suite);
      ("dualgraph", Test_dualgraph.suite);
      ("radiosim", Test_radiosim.suite);
      ("seed-agreement", Test_seed.suite);
      ("local-broadcast", Test_lb.suite);
      ("baseline", Test_baseline.suite);
      ("mac-layer", Test_mac.suite);
      ("mac-apps", Test_macapps.suite);
      ("adaptive-adversary", Test_adaptive.suite);
      ("instrumentation", Test_instrumentation.suite);
      ("oracle-ablation", Test_oracle.suite);
      ("io-render", Test_io_render.suite);
      ("hypothesis", Test_hypothesis.suite);
      ("lb-probe", Test_lbprobe.suite);
      ("engine-properties", Test_engine_props.suite);
      ("lb-properties", Test_lb_props.suite);
      ("gossip-baseline", Test_gossip.suite);
      ("service", Test_service.suite);
      ("serving-engine", Test_serve.suite);
      ("observability", Test_obs.suite);
      ("faults", Test_faults.suite);
      ("golden-traces", Test_golden.suite);
      ("printers", Test_printers.suite);
      ("stats", Test_stats.suite);
      ("tiled-engine", Test_tiled.suite);
      ("reception-models", Test_reception.suite);
      ("spec-grammar", Test_grammar.suite);
    ]
