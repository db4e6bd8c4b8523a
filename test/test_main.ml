let () =
  Alcotest.run "dlosn"
    [
      ("rng", Test_rng.suite);
      ("linalg", Test_linalg.suite);
      ("spline", Test_spline.suite);
      ("ode-pde", Test_ode_pde.suite);
      ("pde-perf", Test_pde_perf.suite);
      ("optimize-stats", Test_optimize_stats.suite);
      ("graph", Test_graph.suite);
      ("socialnet", Test_socialnet.suite);
      ("dl", Test_dl.suite);
      ("extensions", Test_extensions.suite);
      ("network", Test_network.suite);
      ("invariants", Test_qcheck_invariants.suite);
      ("forecasting", Test_forecasting.suite);
      ("stats-tests", Test_stats_tests.suite);
      ("digg-csv", Test_digg_csv.suite);
      ("verification", Test_verification.suite);
      ("report-export", Test_report_export.suite);
      ("pde2d-joint", Test_pde2d.suite);
      ("parallel", Test_parallel.suite);
      ("obs", Test_obs.suite);
      ("horizon", Test_horizon.suite);
      ("otlp", Test_otlp.suite);
      ("serve", Test_serve.suite);
      ("trace", Test_trace.suite);
      ("store", Test_store.suite);
      ("live", Test_live.suite);
      ("tournament", Test_tournament.suite);
      ("reproduction", Test_reproduction.suite);
    ]
