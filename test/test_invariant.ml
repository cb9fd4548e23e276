(* The model's output requirements — each logical clock advances within its
   algorithm's rate envelope and never runs backwards, and adjacent skew
   stays within the gradient bound — checked on sampled trajectories by
   [Monitor.check_samples], the replay [gcs-cli run --check] uses. *)

module Topology = Gcs_graph.Topology
module Shortest_path = Gcs_graph.Shortest_path
module Spec = Gcs_core.Spec
module Algorithm = Gcs_core.Algorithm
module Bounds = Gcs_core.Bounds
module Runner = Gcs_core.Runner
module Metrics = Gcs_core.Metrics
module Monitor = Gcs_check.Monitor
module Check_run = Gcs_check.Check_run

let spec = Spec.make ()

let sample t values = { Metrics.time = t; values }

(* A gradient monitor with the rate check off, so hand-made trajectories
   exercise one check at a time. *)
let skew_only ~after ~bound =
  {
    (Check_run.default_spec spec Algorithm.Gradient_sync) with
    Monitor.check_rate = false;
    skew_bound = Some bound;
    after;
  }

let first_violation mspec graph samples =
  fst (Monitor.check_samples mspec ~graph ~samples)

let test_rate_envelope_flags_spike () =
  let samples =
    [| sample 0. [| 0.; 0. |]; sample 1. [| 1.; 5. |]; sample 2. [| 2.; 6. |] |]
  in
  let mspec =
    {
      (Check_run.default_spec spec Algorithm.Gradient_sync) with
      Monitor.rate_lo = 0.9;
      rate_hi = 1.2;
    }
  in
  match first_violation mspec (Topology.line 2) samples with
  | Some v ->
      Alcotest.(check string) "rate" "rate" (Monitor.kind_name v.Monitor.kind);
      Alcotest.(check int) "node 1" 1 v.Monitor.node;
      Alcotest.(check (float 1e-9)) "at t=1" 1. v.Monitor.time
  | None -> Alcotest.fail "rate spike not flagged"

let test_skew_bound_respects_after () =
  let g = Topology.line 2 in
  let samples =
    [|
      sample 0. [| 0.; 0. |]; sample 1. [| 0.; 100. |]; sample 10. [| 100.; 101. |];
    |]
  in
  Alcotest.(check bool) "warm-up violation ignored" true
    (first_violation (skew_only ~after:5. ~bound:2.) g samples = None);
  match first_violation (skew_only ~after:0. ~bound:2.) g samples with
  | Some v ->
      Alcotest.(check string) "skew" "skew" (Monitor.kind_name v.Monitor.kind);
      Alcotest.(check (float 1e-9)) "at t=1" 1. v.Monitor.time
  | None -> Alcotest.fail "violation not caught without after"

let test_skew_bound_reports_pair () =
  (* On a line 0-1-2-3 only the 1~2 gap exceeds the bound. *)
  let g = Topology.line 4 in
  let samples =
    [| sample 0. [| 0.; 0.; 0.; 0. |]; sample 1. [| 0.; 1.; 9.; 10. |] |]
  in
  match first_violation (skew_only ~after:0. ~bound:2.) g samples with
  | Some v ->
      Alcotest.(check int) "local pair lower id" 1 v.Monitor.node;
      Alcotest.(check (option int)) "local pair peer" (Some 2) v.Monitor.peer
  | None -> Alcotest.fail "expected a local skew violation"

let test_envelopes_per_algorithm () =
  let free = Check_run.default_spec spec Algorithm.Free_run in
  let grad = Check_run.default_spec spec Algorithm.Gradient_sync in
  let tree = Check_run.default_spec spec Algorithm.Tree_sync in
  let max = Check_run.default_spec spec Algorithm.Max_sync in
  Alcotest.(check bool) "free-run tightest" true
    (free.Monitor.rate_hi < grad.Monitor.rate_hi);
  Alcotest.(check bool) "tree can slew down" true (tree.Monitor.rate_lo < 1.);
  Alcotest.(check bool) "only max skips the rate check" true
    ((not max.Monitor.check_rate)
    && free.Monitor.check_rate && grad.Monitor.check_rate
    && tree.Monitor.check_rate)

let horizon = 300.

let run algo =
  Runner.run
    (Runner.config ~spec ~algo ~horizon ~seed:63 (Topology.ring 8))

let test_all_builtin_algorithms_conform () =
  List.iter
    (fun algo ->
      let r = run algo in
      let skew_bound =
        if algo <> Algorithm.Gradient_sync then None
        else
          Some
            (Bounds.gradient_local_upper spec
               ~diameter:(Shortest_path.diameter r.Runner.graph))
      in
      let mspec =
        Check_run.default_spec ?skew_bound ~after:(horizon /. 4.) spec algo
      in
      match first_violation mspec r.Runner.graph r.Runner.samples with
      | None -> ()
      | Some v ->
          Alcotest.failf "%s violates: %s"
            (Algorithm.kind_name algo)
            (Monitor.violation_to_string v))
    Algorithm.all_kinds

let test_jumping_algorithm_fails_envelope_check () =
  (* Max-sync's jumps must show up when checked against a no-jump envelope:
     the checker sees what the jump accounting sees. *)
  let r = run Algorithm.Max_sync in
  let mspec = Check_run.default_spec spec Algorithm.Gradient_sync in
  match first_violation mspec r.Runner.graph r.Runner.samples with
  | Some v ->
      Alcotest.(check string) "jumps detected as rate spikes" "rate"
        (Monitor.kind_name v.Monitor.kind)
  | None -> Alcotest.fail "max-sync's jumps passed the gradient envelope"

let suite =
  [
    Alcotest.test_case "rate spike flagged" `Quick test_rate_envelope_flags_spike;
    Alcotest.test_case "skew bound after" `Quick test_skew_bound_respects_after;
    Alcotest.test_case "skew bound pair" `Quick test_skew_bound_reports_pair;
    Alcotest.test_case "per-algorithm envelopes" `Quick test_envelopes_per_algorithm;
    Alcotest.test_case "builtins conform" `Quick test_all_builtin_algorithms_conform;
    Alcotest.test_case "jumps fail strict check" `Quick test_jumping_algorithm_fails_envelope_check;
  ]
