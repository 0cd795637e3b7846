let () =
  Alcotest.run "entangle"
    [
      ("relational", Test_relational.suite);
      ("eval", Test_eval.suite);
      ("plan", Test_plan.suite);
      ("graphs", Test_graphs.suite);
      ("entangled", Test_entangled.suite);
      ("algorithms", Test_algorithms.suite);
      ("single-connected", Test_single_connected.suite);
      ("extensions", Test_extensions.suite);
      ("online-incremental", Test_online_incremental.suite);
      ("online-sharded", Test_online_sharded.suite);
      ("containment", Test_containment.suite);
      ("proposition-1", Test_prop1.suite);
      ("sat", Test_sat.suite);
      ("workload", Test_workload.suite);
      ("obs", Test_obs.suite);
      ("json", Test_json.suite);
      ("resilient", Test_resilient.suite);
      ("durable", Test_durable.suite);
      ("server", Test_server.suite);
      ("executor", Test_executor.suite);
    ]
