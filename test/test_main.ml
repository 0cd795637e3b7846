let () =
  Alcotest.run "entangle"
    [
      ("relational", Test_relational.suite);
      ("eval", Test_eval.suite);
      ("plan", Test_plan.suite);
      ("graphs", Test_graphs.suite);
      ("entangled", Test_entangled.suite);
      ("algorithms", Test_algorithms.suite);
      ("scc-seeded", Test_scc_seeded.suite);
      ("single-connected", Test_single_connected.suite);
      ("extensions", Test_extensions.suite);
      ("online-incremental", Test_online_incremental.suite);
      ("fire-alloc", Test_fire_alloc.suite);
      ("containment", Test_containment.suite);
      ("proposition-1", Test_prop1.suite);
      ("sat", Test_sat.suite);
      ("workload", Test_workload.suite);
      ("obs", Test_obs.suite);
      ("json", Test_json.suite);
      ("parser-fuzz", Test_parser_fuzz.suite);
      ("resilient", Test_resilient.suite);
      ("durable", Test_durable.suite);
      ("wal-fuzz", Test_wal_fuzz.suite);
      ("frame-fuzz", Test_frame_fuzz.suite);
      ("server", Test_server.suite);
      ("differential", Test_differential.suite);
    ]
