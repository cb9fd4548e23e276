(* Cross-feature integration: the extensions composed with each other and
   with the fault injectors, mirroring how a deployment would combine them. *)

module Topology = Gcs_graph.Topology
module Spec = Gcs_core.Spec
module Algorithm = Gcs_core.Algorithm
module Registry = Gcs_core.Registry
module Runner = Gcs_core.Runner
module Metrics = Gcs_core.Metrics
module Stabilize = Gcs_core.Stabilize
module External_sync = Gcs_core.External_sync
module Gh = Gcs_core.Gradient_hetero
module Dm = Gcs_sim.Delay_model

let spec = Spec.make ()

let test_stabilize_under_loss () =
  (* 20% message loss must not deadlock the monitor: rounds that lose a
     report are abandoned and the next round starts fresh. *)
  let wrapped, stats =
    Stabilize.wrap ~inner:(Registry.get Algorithm.Gradient_sync) ()
  in
  let r =
    Runner.run
      (Runner.config ~spec ~algo:Algorithm.Gradient_sync ~override:wrapped
         ~loss:(Runner.Uniform_loss 0.2)
         ~initial_value_of_node:(fun v -> if v = 3 then 1e5 else 0.)
         ~horizon:800. ~warmup:700. ~seed:51 (Topology.line 10))
  in
  Alcotest.(check bool) "some round completed" true
    (stats.Stabilize.rounds_completed >= 1);
  Alcotest.(check bool) "still recovered" true
    (r.Runner.summary.Metrics.final_global < 100.)

let test_external_under_churn () =
  (* Anchored network with 20% link churn: real-time tracking survives
     because anchors read their references locally (no messages needed) and
     gradient beacons are soft state. *)
  let anchors v = if v mod 4 = 0 then Some External_sync.perfect_reference else None in
  let algo = External_sync.algorithm ~anchors in
  let graph = Topology.ring 16 in
  (* Every link flaps: down for 8 time units on average, up for 32. *)
  let churn =
    Gcs_sim.Churn_plan.of_processes
      [
        Gcs_sim.Churn_plan.Flap
          {
            from_ = 0.;
            until = 1200.;
            up_mean = 32.;
            down_mean = 8.;
            edges = Gcs_sim.Fault_plan.All_edges;
          };
      ]
  in
  let r =
    Runner.run
      (Runner.config ~spec ~algo:Algorithm.Gradient_sync ~override:algo
         ?fault_plan:
           (Gcs_sim.Churn_plan.compile churn ~graph ~seed:53 ~horizon:1200.)
         ~horizon:1200. ~seed:53 graph)
  in
  let rt =
    Array.fold_left
      (fun acc (s : Metrics.sample) ->
        if s.Metrics.time >= 600. then
          Float.max acc
            (Metrics.real_time_skew ~time:s.Metrics.time s.Metrics.values)
        else acc)
      0. r.Runner.samples
  in
  Alcotest.(check bool)
    (Printf.sprintf "tracks real time under churn (%.2f)" rt)
    true (rt < 10.)

let test_hetero_under_bias () =
  (* The per-edge algorithm on a biased ring: still bounded (its quanta are
     at least as protective as the uniform algorithm's). *)
  let graph = Topology.ring 16 in
  let edge_bounds _ = spec.Spec.delay in
  let cfg =
    Runner.config ~spec ~algo:Algorithm.Gradient_sync
      ~override:(Gh.algorithm ~edge_bounds)
      ~delay_kind:Runner.Controlled_delays ~horizon:500. ~warmup:0. ~seed:55
      graph
  in
  let live = Runner.prepare cfg in
  let b = spec.Spec.delay in
  live.Runner.chooser :=
    Some
      (fun ~edge:_ ~src ~dst ~now:_ ->
        if (src + 1) mod 16 = dst then b.Dm.d_max else b.Dm.d_min);
  let r = Runner.complete live in
  let envelope = Gcs_core.Bounds.gradient_local_upper spec ~diameter:8 in
  Alcotest.(check bool) "bounded under bias" true
    (r.Runner.summary.Metrics.max_local <= envelope)

let test_stabilized_tree_sync () =
  (* The wrapper is algorithm-agnostic: it must also heal tree-based sync. *)
  let wrapped, stats =
    Stabilize.wrap ~inner:(Registry.get Algorithm.Tree_sync) ()
  in
  let r =
    Runner.run
      (Runner.config ~spec ~algo:Algorithm.Tree_sync ~override:wrapped
         ~initial_value_of_node:(fun v -> if v = 2 then 1e5 else 0.)
         ~horizon:500. ~warmup:400. ~seed:57 (Topology.line 8))
  in
  Alcotest.(check bool) "reset fired" true (stats.Stabilize.resets >= 1);
  Alcotest.(check bool) "healed" true
    (r.Runner.summary.Metrics.final_global < 100.)

let test_determinism_spans_features () =
  (* Loss + stabilization + adversarial init, run twice: identical. *)
  let run () =
    let wrapped, _ =
      Stabilize.wrap ~inner:(Registry.get Algorithm.Gradient_sync) ()
    in
    let r =
      Runner.run
        (Runner.config ~spec ~algo:Algorithm.Gradient_sync ~override:wrapped
           ~loss:(Runner.Uniform_loss 0.3)
           ~initial_value_of_node:(fun v -> float_of_int (v * v))
           ~horizon:300. ~seed:59 (Topology.grid ~rows:3 ~cols:3))
    in
    (r.Runner.summary, r.Runner.messages, r.Runner.dropped)
  in
  Alcotest.(check bool) "bitwise replay" true (run () = run ())

let suite =
  [
    Alcotest.test_case "stabilize under loss" `Quick test_stabilize_under_loss;
    Alcotest.test_case "external under churn" `Quick test_external_under_churn;
    Alcotest.test_case "hetero under bias" `Quick test_hetero_under_bias;
    Alcotest.test_case "stabilized tree sync" `Quick test_stabilized_tree_sync;
    Alcotest.test_case "determinism across features" `Quick test_determinism_spans_features;
  ]
