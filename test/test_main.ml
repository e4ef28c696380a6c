let () =
  (* CI's differential job reruns the whole suite with telemetry
     collection enabled; every assertion must hold identically
     (observability is contractually zero-perturbation). *)
  if Sys.getenv_opt "IRONSAFE_OBS" = Some "1" then Ironsafe_obs.Obs.enable ();
  Alcotest.run "ironsafe"
    [
      ("crypto", Test_crypto.suite);
      ("sim", Test_sim.suite);
      ("storage", Test_storage.suite);
      ("securestore", Test_securestore.suite);
      ("tee", Test_tee.suite);
      ("net", Test_net.suite);
      ("sql", Test_sql.suite);
      ("sql-advanced", Test_sql_advanced.suite);
      ("bufpool", Test_bufpool.suite);
      ("index", Test_index.suite);
      ("tpch", Test_tpch.suite);
      ("policy", Test_policy.suite);
      ("monitor", Test_monitor.suite);
      ("core", Test_core.suite);
      ("obs", Test_obs.suite);
      ("forensics", Test_forensics.suite);
      ("flight", Test_flight.suite);
      ("differential", Test_differential.suite);
      ("faults", Test_fault.suite);
      ("wal", Test_wal.suite);
      ("sched", Test_sched.suite);
      ("cluster", Test_cluster.suite);
      ("pinned", Test_pinned.suite);
      ("alloc-budget", Test_alloc.suite);
      (* Alcotest pads the suite column to the longest suite name (18
         characters, this one) and truncates long test names to fit 80
         columns, so dropping or renaming the longest suite changes how
         every long test name is reported. *)
      ("read-path-counters", Test_read_path.suite);
    ]
