(* Test entry point: one alcotest suite per module of the library. Logs go
   under [_build/_tests] next to the binary, wherever it is run from. *)

let () =
  Alcotest.run "gcs"
    ~log_dir:
      (Filename.concat (Filename.dirname Sys.executable_name) "_build/_tests")
    [
      ("util.prng", Test_prng.suite);
      ("util.stats", Test_stats.suite);
      ("util.scheduler", Test_scheduler.suite);
      ("util.pool", Test_pool.suite);
      ("util.table", Test_table.suite);
      ("util.csv", Test_csv.suite);
      ("graph.graph", Test_graph.suite);
      ("graph.topology", Test_topology.suite);
      ("graph.shortest_path", Test_shortest_path.suite);
      ("graph.spanning_tree", Test_spanning_tree.suite);
      ("clock.hardware", Test_hardware_clock.suite);
      ("clock.drift", Test_drift.suite);
      ("clock.logical", Test_logical_clock.suite);
      ("sim.delay_model", Test_delay_model.suite);
      ("sim.fault_plan", Test_fault_plan.suite);
      ("sim.churn_plan", Test_churn_plan.suite);
      ("sim.engine", Test_engine.suite);
      ("sim.event_queue", Test_event_queue.suite);
      ("obs.sinks", Test_obs.suite);
      ("obs.export", Test_event_log_export.suite);
      ("store", Test_store.suite);
      ("sim.mobility", Test_mobility.suite);
      ("core.spec", Test_spec.suite);
      ("core.offset_estimator", Test_offset_estimator.suite);
      ("core.triggers", Test_triggers.suite);
      ("core.trigger_scan", Test_trigger_scan.suite);
      ("core.metrics", Test_metrics.suite);
      ("core.bounds", Test_bounds.suite);
      ("core.message", Test_message.suite);
      ("core.algorithms", Test_algorithms.suite);
      ("core.max_slew", Test_max_slew.suite);
      ("core.runner", Test_runner.suite);
      ("core.gradient_hetero", Test_gradient_hetero.suite);
      ("core.gradient_rtt", Test_gradient_rtt.suite);
      ("core.stabilize", Test_stabilize.suite);
      ("core.external_sync", Test_external_sync.suite);
      ("adversary", Test_adversary.suite);
      ("adversary.search", Test_search.suite);
      ("core.invariant", Test_invariant.suite);
      ("core.replicate", Test_replicate.suite);
      ("core.parallel_run", Test_parallel_run.suite);
      ("core.faults", Test_faults.suite);
      ("core.golden", Test_golden.suite);
      ("core.region_parallel", Test_region_parallel.suite);
      ("check", Test_check.suite);
      ("explore", Test_explore.suite);
      ("integration", Test_integration.suite);
      ("adversarial.random", Test_adversarial_random.suite);
      ("net", Test_net.suite);
    ]
