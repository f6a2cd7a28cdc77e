(* Test driver: all suites under one Alcotest binary. *)

let () =
  Alcotest.run "nbr"
    [
      ("sim-runtime", Test_sim_rt.suite);
      ("treiber", Test_treiber.suite);
      ("pool", Test_pool.suite);
      ("limbo-bag", Test_limbo_bag.suite);
      ("smr-schemes", Test_smr.suite);
      ("ds-sequential", Test_ds_sequential.suite);
      ("ds-concurrent", Test_ds_concurrent.suite);
      ("per-key", Test_per_key.suite);
      ("properties", Test_properties.suite);
      ("fault", Test_fault.suite);
      ("reclaim", Test_reclaim.suite);
      ("lifecycle", Test_lifecycle.suite);
      ("native-runtime", Test_native.suite);
      ("obs", Test_obs.suite);
      ("traffic", Test_traffic.suite);
      ("kv", Test_kv.suite);
      ("guard", Test_guard.suite);
      ("check", Test_check.suite);
      ("analysis", Test_analysis.suite);
      ("cli", Test_cli.suite);
    ]
