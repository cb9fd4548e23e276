module Choice = Gcs_explore.Choice
module Instance = Gcs_explore.Instance
module Explorer = Gcs_explore.Explorer
module Verdict = Gcs_explore.Verdict
module Canon = Gcs_explore.Canon
module Monitor = Gcs_check.Monitor
module Check_run = Gcs_check.Check_run
module Repro = Gcs_check.Repro
module Shrink = Gcs_check.Shrink
module Spec = Gcs_core.Spec
module Algorithm = Gcs_core.Algorithm
module Topology = Gcs_graph.Topology
module Search = Gcs_adversary.Search

let spec = Spec.make ()

(* A monitor whose rate ceiling sits below vartheta (1.01): any decision
   that puts a node on the fast half of the drift split violates it in the
   node's first segment, so the explorer must find a depth-1 trace. *)
let tight_monitor () =
  {
    (Check_run.default_spec ~mode:`Abort spec Algorithm.Gradient_sync) with
    Monitor.rate_hi = 1.005;
  }

(* ---------------------------------------------------------------- *)
(* Alphabets and the decision codec                                 *)

let test_alphabet_sizes () =
  Alcotest.(check int) "all" 9 (List.length Choice.all);
  Alcotest.(check int) "drift" 3 (List.length Choice.drift_only);
  Alcotest.(check int) "delay" 3 (List.length Choice.delay_only);
  Alcotest.(check int) "extremes" 4 (List.length Choice.extremes)

let test_alphabet_parsing () =
  let ok name expected =
    match Choice.alphabet_of_string name with
    | Ok l -> Alcotest.(check bool) name true (l = expected)
    | Error e -> Alcotest.failf "%s: %s" name e
  in
  ok "all" Choice.all;
  ok "drift" Choice.drift_only;
  ok "delay" Choice.delay_only;
  ok "extreme" Choice.extremes;
  ok "extremes" Choice.extremes;
  (match Choice.alphabet_of_string "LF;RB" with
  | Ok [ m1; m2 ] ->
      Alcotest.(check string) "LF" "LF" (Choice.to_string m1);
      Alcotest.(check string) "RB" "RB" (Choice.to_string m2)
  | _ -> Alcotest.fail "explicit move list did not parse");
  (match Choice.alphabet_of_string "" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty alphabet accepted");
  match Choice.alphabet_of_string "XZ" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage alphabet accepted"

let test_alphabet_rendering () =
  Alcotest.(check string) "named" "all" (Choice.alphabet_to_string Choice.all);
  Alcotest.(check string) "named" "extreme"
    (Choice.alphabet_to_string Choice.extremes);
  let custom = [ List.hd Choice.all ] in
  match Choice.alphabet_of_string (Choice.alphabet_to_string custom) with
  | Ok l -> Alcotest.(check bool) "custom roundtrip" true (l = custom)
  | Error e -> Alcotest.fail e

let test_trace_codec_roundtrip () =
  let trace = Choice.extremes @ List.rev Choice.extremes in
  match Choice.trace_of_string (Choice.trace_to_string trace) with
  | Ok t -> Alcotest.(check bool) "roundtrip" true (t = trace)
  | Error e -> Alcotest.fail e

let test_discretization () =
  Alcotest.(check (list (float 1e-12))) "delay points" [ 0.5; 1.0; 1.5 ]
    (Choice.delay_points spec);
  Alcotest.(check (list (float 1e-12))) "rate lattice" [ 1.; 1.01 ]
    (Choice.rate_lattice spec)

(* ---------------------------------------------------------------- *)
(* Instance validation and space arithmetic                         *)

let test_instance_validation () =
  let raises name f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s accepted" name
  in
  raises "depth 0" (fun () -> Instance.make ~depth:0 ());
  raises "segment 0" (fun () -> Instance.make ~segment_len:0. ());
  raises "empty alphabet" (fun () -> Instance.make ~alphabet:[] ());
  raises "too many nodes" (fun () ->
      Instance.make ~topology:(Topology.Ring 8) ());
  raises "too few nodes" (fun () ->
      Instance.make ~topology:(Topology.Line 1) ());
  raises "plan names a missing node" (fun () ->
      Instance.make
        ~fault_plan:
          (Gcs_sim.Fault_plan.of_events
             [ Gcs_sim.Fault_plan.Node_crash { at = 1.; node = 9 } ])
        ())

let test_instance_space_arithmetic () =
  let inst = Instance.make () in
  (* Defaults: ring:3, extremes (4 moves), depth 3. *)
  Alcotest.(check int) "nodes" 3 (Instance.nodes inst);
  Alcotest.(check int) "executions" 64 (Instance.executions inst);
  Alcotest.(check int) "prefixes" 84 (Instance.prefixes inst);
  Alcotest.(check (float 1e-9)) "horizon" 24. (Instance.horizon inst ~depth:3);
  let dup = Instance.make ~alphabet:(Choice.extremes @ Choice.extremes) () in
  Alcotest.(check int) "alphabet deduplicated" 4
    (List.length dup.Instance.alphabet)

let test_instance_key_is_perfect_drift () =
  let inst = Instance.make () in
  let key = Instance.key inst ~depth:2 in
  Alcotest.(check string) "drift pinned" "perfect" key.Gcs_store.Key.drift;
  Alcotest.(check (float 1e-9)) "horizon at depth" 16.
    key.Gcs_store.Key.horizon

(* ---------------------------------------------------------------- *)
(* Golden exhaustiveness counts                                     *)

let test_golden_line2_delay () =
  let inst =
    Instance.make ~topology:(Topology.Line 2) ~alphabet:Choice.delay_only ()
  in
  let o = Explorer.explore inst in
  Alcotest.(check bool) "proved" true (o.Explorer.verdict = Explorer.Proved);
  let s = o.Explorer.stats in
  Alcotest.(check int) "visited = prefixes" 39 s.Explorer.states_visited;
  Alcotest.(check int) "executions" 27 s.Explorer.executions;
  Alcotest.(check int) "nothing pruned" 0 s.Explorer.pruned;
  Alcotest.(check int) "max depth" 3 s.Explorer.max_depth;
  Alcotest.(check int) "frontier high water" 27 s.Explorer.frontier_high_water;
  Alcotest.(check int) "events checked" 6424 s.Explorer.events_checked

let test_golden_ring3_extremes () =
  let inst = Instance.make () in
  let o = Explorer.explore inst in
  Alcotest.(check bool) "proved" true (o.Explorer.verdict = Explorer.Proved);
  let s = o.Explorer.stats in
  Alcotest.(check int) "visited = prefixes" 84 s.Explorer.states_visited;
  Alcotest.(check int) "executions" 64 s.Explorer.executions;
  Alcotest.(check int) "frontier high water" 64 s.Explorer.frontier_high_water;
  Alcotest.(check int) "events checked" 26920 s.Explorer.events_checked

let test_golden_ring3_dedup () =
  let inst = Instance.make () in
  let o = Explorer.explore ~dedup:true inst in
  Alcotest.(check bool) "still proved" true
    (o.Explorer.verdict = Explorer.Proved);
  let s = o.Explorer.stats in
  Alcotest.(check int) "visited" 52 s.Explorer.states_visited;
  Alcotest.(check int) "executions" 32 s.Explorer.executions;
  Alcotest.(check int) "pruned" 8 s.Explorer.pruned;
  Alcotest.(check int) "distinct states" 12 s.Explorer.distinct_states

let test_dfs_same_space_smaller_frontier () =
  let inst = Instance.make () in
  let bfs = Explorer.explore ~strategy:Explorer.Bfs inst in
  let dfs = Explorer.explore ~strategy:Explorer.Dfs inst in
  Alcotest.(check bool) "both proved" true
    (bfs.Explorer.verdict = Explorer.Proved
    && dfs.Explorer.verdict = Explorer.Proved);
  Alcotest.(check int) "same prefixes visited"
    bfs.Explorer.stats.Explorer.states_visited
    dfs.Explorer.stats.Explorer.states_visited;
  Alcotest.(check int) "same executions"
    bfs.Explorer.stats.Explorer.executions
    dfs.Explorer.stats.Explorer.executions;
  Alcotest.(check int) "same events checked"
    bfs.Explorer.stats.Explorer.events_checked
    dfs.Explorer.stats.Explorer.events_checked;
  Alcotest.(check int) "dfs frontier high water" 10
    dfs.Explorer.stats.Explorer.frontier_high_water

let test_budget_exhausted () =
  let inst = Instance.make () in
  let o = Explorer.explore ~max_states:10 inst in
  Alcotest.(check bool) "budget verdict" true
    (o.Explorer.verdict = Explorer.Budget_exhausted);
  Alcotest.(check int) "stopped at the budget" 10
    o.Explorer.stats.Explorer.states_visited

(* ---------------------------------------------------------------- *)
(* Violations: shallowest trace, shrink, repro interop              *)

let test_violation_shallowest_first () =
  let inst = Instance.make ~monitor:(tight_monitor ()) () in
  let o = Explorer.explore inst in
  match o.Explorer.verdict with
  | Explorer.Violated { trace; violation } ->
      Alcotest.(check int) "depth-1 trace" 1 (List.length trace);
      Alcotest.(check string) "first alphabet move" "LF"
        (Choice.trace_to_string trace);
      Alcotest.(check bool) "rate violation" true
        (violation.Monitor.kind = Monitor.Rate);
      Alcotest.(check int) "only one prefix needed" 1
        o.Explorer.stats.Explorer.states_visited
  | _ -> Alcotest.fail "expected a violation under rate_hi = 1.005"

let test_violation_shrinks_and_replays () =
  let inst = Instance.make ~monitor:(tight_monitor ()) () in
  match (Explorer.explore inst).Explorer.verdict with
  | Explorer.Violated { trace; violation } -> (
      (* Unshrunk repro replays. *)
      let r = Verdict.repro inst ~trace ~violation in
      (match Repro.replay r with
      | Ok Repro.Reproduced -> ()
      | Ok _ -> Alcotest.fail "unshrunk replay diverged"
      | Error e -> Alcotest.fail e);
      (* Shrink, package the minimized candidate, replay byte-identically. *)
      match Verdict.shrink inst ~trace with
      | None -> Alcotest.fail "shrinker lost the violation"
      | Some o ->
          Alcotest.(check bool) "no growth" true
            (List.length o.Shrink.minimized.Shrink.moves
            <= List.length trace);
          let r' =
            Verdict.repro_of_candidate inst o.Shrink.minimized
              ~violation:o.Shrink.violation
          in
          let bytes = Repro.to_string r' in
          Alcotest.(check string) "deterministic encoding" bytes
            (Repro.to_string r');
          (match Repro.of_string bytes with
          | Error e -> Alcotest.fail e
          | Ok loaded -> (
              match Repro.replay loaded with
              | Ok Repro.Reproduced -> ()
              | Ok _ -> Alcotest.fail "shrunk replay diverged"
              | Error e -> Alcotest.fail e)))
  | _ -> Alcotest.fail "expected a violation under rate_hi = 1.005"

(* ---------------------------------------------------------------- *)
(* Canonicalization and edges of simulate                           *)

let test_canon_deterministic_and_discriminating () =
  let inst = Instance.make () in
  let canon trace =
    match Explorer.simulate inst trace with
    | Ok s -> Canon.state s.Check_run.live
    | Error e -> Alcotest.fail e
  in
  let lf = [ { Search.fast_side = `Left; bias = `Forward } ] in
  let rb = [ { Search.fast_side = `Right; bias = `Backward } ] in
  Alcotest.(check string) "same trace, same canon" (canon lf) (canon lf);
  Alcotest.(check bool) "different trace, different canon" true
    (canon lf <> canon rb)

let test_simulate_rejects_empty_trace () =
  match Explorer.simulate (Instance.make ()) [] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty trace accepted"

let test_json_deterministic () =
  let inst = Instance.make ~topology:(Topology.Line 2) ~depth:2 () in
  let o = Explorer.explore inst in
  let j = Verdict.to_json inst o in
  Alcotest.(check string) "same outcome, same bytes" j
    (Verdict.to_json inst o);
  Alcotest.(check bool) "status present" true
    (let needle = "\"status\":\"proved\"" in
     let rec find i =
       i + String.length needle <= String.length j
       && (String.sub j i (String.length needle) = needle || find (i + 1))
     in
     find 0)

let suite =
  [
    Alcotest.test_case "alphabet sizes" `Quick test_alphabet_sizes;
    Alcotest.test_case "alphabet parsing" `Quick test_alphabet_parsing;
    Alcotest.test_case "alphabet rendering" `Quick test_alphabet_rendering;
    Alcotest.test_case "trace codec roundtrip" `Quick test_trace_codec_roundtrip;
    Alcotest.test_case "discretization" `Quick test_discretization;
    Alcotest.test_case "instance validation" `Quick test_instance_validation;
    Alcotest.test_case "space arithmetic" `Quick test_instance_space_arithmetic;
    Alcotest.test_case "key pins perfect drift" `Quick
      test_instance_key_is_perfect_drift;
    Alcotest.test_case "golden: line2/delay" `Quick test_golden_line2_delay;
    Alcotest.test_case "golden: ring3/extremes" `Quick
      test_golden_ring3_extremes;
    Alcotest.test_case "golden: ring3 dedup" `Quick test_golden_ring3_dedup;
    Alcotest.test_case "dfs same space, smaller frontier" `Quick
      test_dfs_same_space_smaller_frontier;
    Alcotest.test_case "budget exhausted" `Quick test_budget_exhausted;
    Alcotest.test_case "violation: shallowest first" `Quick
      test_violation_shallowest_first;
    Alcotest.test_case "violation: shrink and replay" `Quick
      test_violation_shrinks_and_replays;
    Alcotest.test_case "canon deterministic" `Quick
      test_canon_deterministic_and_discriminating;
    Alcotest.test_case "simulate rejects empty trace" `Quick
      test_simulate_rejects_empty_trace;
    Alcotest.test_case "json deterministic" `Quick test_json_deterministic;
  ]
