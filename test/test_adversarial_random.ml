(* Property-based adversarial testing: random adversaries drawn from the
   model's full power set (arbitrary rate schedules within [1, 1+rho] and
   arbitrary delay choosers within [d_min, d_max]) must never push the
   gradient algorithm past its analytic envelope, and must never break the
   model's output requirements for any algorithm. This is the qcheck
   complement to the hand-crafted attacks in gcs_adversary. *)

module Topology = Gcs_graph.Topology
module Engine = Gcs_sim.Engine
module Spec = Gcs_core.Spec
module Algorithm = Gcs_core.Algorithm
module Runner = Gcs_core.Runner
module Bounds = Gcs_core.Bounds
module Metrics = Gcs_core.Metrics
module Monitor = Gcs_check.Monitor
module Check_run = Gcs_check.Check_run
module Prng = Gcs_util.Prng
module Dm = Gcs_sim.Delay_model
module Drift = Gcs_clock.Drift

let spec = Spec.make ()
let horizon = 250.

(* One random adversary = a seed. It derives a rate schedule (random rate
   per node re-drawn every [rate_step]) and a delay chooser (random but
   deterministic per (edge, direction, time bucket)). *)
let run_random_adversary ~algo ~seed =
  let n = 9 in
  let graph = Topology.line n in
  let cfg =
    Runner.config ~spec ~algo
      ~drift_of_node:(fun _ -> Drift.Constant 1.)
      ~delay_kind:Runner.Controlled_delays ~horizon ~warmup:(horizon /. 2.)
      ~seed graph
  in
  let live = Runner.prepare cfg in
  let adv_rng = Prng.create ~seed:(seed lxor 0xADF) in
  let b = spec.Spec.delay in
  (* Deterministic pseudo-random delay per (edge, direction, 1-unit time
     bucket) so the chooser is a function, as the model requires. *)
  let hash_delay ~edge ~src ~dst ~now =
    let bucket = int_of_float now in
    let h = Hashtbl.hash (edge, src, dst, bucket, seed) in
    let frac = float_of_int (h land 0xFFFF) /. 65535. in
    b.Dm.d_min +. (frac *. (b.Dm.d_max -. b.Dm.d_min))
  in
  live.Runner.chooser := Some (fun ~edge ~src ~dst ~now -> hash_delay ~edge ~src ~dst ~now);
  (* Random rate reassignments every 10 time units. *)
  let rate_step = 10. in
  let rec schedule_rates at =
    if at < horizon then begin
      Engine.schedule_control live.Runner.engine ~at (fun () ->
          for v = 0 to n - 1 do
            let rate = Prng.uniform adv_rng ~lo:1. ~hi:(Spec.vartheta spec) in
            Engine.set_node_rate live.Runner.engine ~node:v ~rate
          done);
      schedule_rates (at +. rate_step)
    end
  in
  schedule_rates 0.;
  Runner.complete live

(* The output requirements, replayed through the monitor: the algorithm's
   rate envelope and monotonicity, and for the gradient its analytic local
   bound from a quarter of the horizon on — earlier than the config's
   warm-up of half the horizon. *)
let meets_output_requirements ~algo (r : Runner.result) =
  let skew_bound =
    if algo <> Algorithm.Gradient_sync then None
    else Some (Bounds.gradient_local_upper spec ~diameter:8)
  in
  let monitor =
    Check_run.default_spec ?skew_bound ~after:(horizon /. 4.) spec algo
  in
  fst
    (Monitor.check_samples monitor ~graph:r.Runner.graph
       ~samples:r.Runner.samples)
  = None

let prop_gradient_envelope_holds =
  QCheck.Test.make ~name:"gradient local skew <= envelope vs random adversaries"
    ~count:25 QCheck.small_nat
    (fun seed ->
      let r = run_random_adversary ~algo:Algorithm.Gradient_sync ~seed in
      r.Runner.summary.Metrics.max_local
      <= Bounds.gradient_local_upper spec ~diameter:8)

let prop_output_requirements_hold =
  QCheck.Test.make
    ~name:"every algorithm meets its output requirements vs random adversaries"
    ~count:10 QCheck.small_nat
    (fun seed ->
      List.for_all
        (fun algo ->
          meets_output_requirements ~algo (run_random_adversary ~algo ~seed))
        Algorithm.all_kinds)

let prop_global_skew_within_context_bound =
  QCheck.Test.make
    ~name:"gradient global skew <= envelope vs random adversaries" ~count:25
    QCheck.small_nat
    (fun seed ->
      let r = run_random_adversary ~algo:Algorithm.Gradient_sync ~seed in
      r.Runner.summary.Metrics.max_global
      <= Bounds.gradient_global_upper spec ~diameter:8)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_gradient_envelope_holds;
    QCheck_alcotest.to_alcotest prop_output_requirements_hold;
    QCheck_alcotest.to_alcotest prop_global_skew_within_context_bound;
  ]
