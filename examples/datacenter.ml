(* A synchronized data-center fabric: everything at once.

   A folded-Clos-ish fabric (modeled as a torus for regularity) where
   operators want globally valid timestamps (external sync against two
   GPS-disciplined anchors), tight neighbor synchronization for synchronous
   low-latency routing (the gradient property), resilience to link flaps
   (churn), and automatic recovery if a node's clock register is corrupted
   (the self-stabilization monitor).

   Run with: dune exec examples/datacenter.exe *)

module Topology = Gcs_graph.Topology
module Shortest_path = Gcs_graph.Shortest_path
module Spec = Gcs_core.Spec
module Algorithm = Gcs_core.Algorithm
module Runner = Gcs_core.Runner
module Metrics = Gcs_core.Metrics
module External_sync = Gcs_core.External_sync
module Stabilize = Gcs_core.Stabilize
module Churn_plan = Gcs_sim.Churn_plan
module Lc = Gcs_clock.Logical_clock

let () =
  let graph = Topology.torus ~rows:6 ~cols:6 in
  let diameter = Shortest_path.diameter graph in
  let spec =
    Spec.make ~rho:1e-3 ~mu:0.05 ~d_min:0.8 ~d_max:1.2 ~beacon_period:1. ()
  in
  Printf.printf "Fabric: 6x6 torus (36 switches), diameter %d, u = %g\n"
    diameter (Spec.uncertainty spec);

  (* Stage 1: external sync with two GPS anchors, one of which has a bias. *)
  let gps_good = External_sync.perfect_reference in
  let gps_biased =
    External_sync.noisy_reference ~bias:0.05 ~wander:0.05 ~period:200. ~phase:1.
  in
  let anchors v =
    if v = 0 then Some gps_good else if v = 21 then Some gps_biased else None
  in
  let algo = External_sync.algorithm ~anchors in
  let cfg =
    Runner.config ~spec ~algo:Algorithm.Gradient_sync ~override:algo
      ~horizon:1500. ~sample_period:2. ~seed:3 graph
  in
  let r = Runner.run cfg in
  let rt =
    Array.fold_left
      (fun acc (s : Metrics.sample) ->
        if s.Metrics.time >= 750. then
          Float.max acc
            (Metrics.real_time_skew ~time:s.Metrics.time s.Metrics.values)
        else acc)
      0. r.Runner.samples
  in
  Printf.printf "\n[external sync, 2 anchors]\n";
  Printf.printf "timestamps track UTC within : %.3f\n" rt;
  Printf.printf "neighbor skew (guard band)  : %.3f\n"
    r.Runner.summary.Metrics.max_local;

  (* Stage 2: the same fabric under 25% link churn: every link flaps, down
     for 10 time units on average and up for 30 (gcs-cli's --churn syntax). *)
  let horizon = 600. in
  let flap =
    Result.get_ok
      (Churn_plan.of_string
         (Printf.sprintf "flap@0..%g:up=30:down=10:all" horizon))
  in
  let churned =
    Runner.run
      (Runner.config ~spec ~algo:Algorithm.Gradient_sync
         ?fault_plan:(Churn_plan.compile flap ~graph ~seed:5 ~horizon)
         ~horizon ~warmup:0. ~seed:5 graph)
  in
  Printf.printf "\n[25%% link churn]\n";
  Printf.printf "realized message loss       : %.1f%%\n"
    (100. *. float churned.Runner.dropped_faults
    /. float churned.Runner.messages);
  Printf.printf "neighbor skew under churn   : %.3f\n"
    (Metrics.summarize graph churned.Runner.samples ~after:(horizon /. 2.))
      .Metrics.max_local;

  (* Stage 3: a corrupted clock register, caught by the monitor. *)
  let wrapped, stats =
    Stabilize.wrap ~inner:(Gcs_core.Registry.get Algorithm.Gradient_sync) ()
  in
  let healed =
    Runner.run
      (Runner.config ~spec ~algo:Algorithm.Gradient_sync ~override:wrapped
         ~initial_value_of_node:(fun v -> if v = 17 then 1e7 else 0.)
         ~horizon:600. ~warmup:500. ~seed:7 graph)
  in
  Printf.printf "\n[corrupted clock at switch 17: +1e7]\n";
  Printf.printf "monitor rounds / resets     : %d / %d\n"
    stats.Stabilize.rounds_completed stats.Stabilize.resets;
  Printf.printf "global skew after recovery  : %.3f\n"
    healed.Runner.summary.Metrics.final_global;
  Printf.printf "reset jumps performed       : %d\n"
    healed.Runner.jumps.Lc.count
