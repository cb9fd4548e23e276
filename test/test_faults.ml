(* End-to-end fault injection through the Runner: partition-then-heal and
   crash-recover produce a demonstrable skew excursion followed by a finite
   time-to-resync, sharded execution of faulted configs stays bit-identical,
   and any plan whose faults all heal re-enters the steady-state band. *)

module Topology = Gcs_graph.Topology
module Graph = Gcs_graph.Graph
module Drift = Gcs_clock.Drift
module Spec = Gcs_core.Spec
module Runner = Gcs_core.Runner
module Metrics = Gcs_core.Metrics
module Fault_metrics = Gcs_core.Fault_metrics
module Parallel_run = Gcs_core.Parallel_run
module Engine = Gcs_sim.Engine
module Fault_plan = Gcs_sim.Fault_plan

let split_drift ~n v = if v < n / 2 then Drift.Extreme_high else Drift.Extreme_low

let fault_report (r : Runner.result) =
  match r.Runner.fault_report with
  | Some rep -> rep
  | None -> Alcotest.fail "fault plan configured but no fault report"

let find_episode rep label =
  match
    List.find_opt
      (fun (e : Fault_metrics.episode_report) -> e.Fault_metrics.label = label)
      rep.Fault_metrics.episodes
  with
  | Some e -> e
  | None ->
      Alcotest.failf "missing episode %S (have: %s)" label
        (String.concat ", "
           (List.map
              (fun (e : Fault_metrics.episode_report) -> e.Fault_metrics.label)
              rep.Fault_metrics.episodes))

(* Acceptance scenario: split a 64-node ring in two for 100 time units. The
   drift split makes the halves diverge at relative rate ~2*rho while cut,
   so the transient demonstrably exceeds the steady band, and gradient must
   pull them back after the heal. *)
let test_partition_heal_ring64 () =
  let graph = Topology.ring 64 in
  let half = List.init 32 Fun.id in
  let plan =
    Fault_plan.of_events
      [
        Fault_plan.Link_partition { at = 150.; edges = Fault_plan.Cut half };
        Fault_plan.Link_heal { at = 250.; edges = Fault_plan.Cut half };
      ]
  in
  let cfg =
    Runner.config
      ~spec:(Spec.make ~kappa:0.5 ())
      ~drift_of_node:(split_drift ~n:64) ~horizon:450. ~seed:11 ~fault_plan:plan
      graph
  in
  let r = Runner.run cfg in
  let rep = fault_report r in
  Alcotest.(check int) "one episode" 1 (List.length rep.Fault_metrics.episodes);
  let ep = find_episode rep "partition" in
  Alcotest.(check (option (float 0.))) "healed at 250" (Some 250.)
    ep.Fault_metrics.stop;
  Alcotest.(check bool) "messages were cut" true
    (r.Runner.dropped_faults > 0);
  Alcotest.(check bool)
    (Printf.sprintf "transient %.3f exceeds band %.3f"
       ep.Fault_metrics.worst_transient ep.Fault_metrics.band)
    true
    (ep.Fault_metrics.worst_transient > ep.Fault_metrics.band);
  match ep.Fault_metrics.time_to_resync with
  | None -> Alcotest.fail "gradient never re-entered the band after the heal"
  | Some tau ->
      Alcotest.(check bool)
        (Printf.sprintf "finite resync %.3f" tau)
        true
        (Float.is_finite tau && tau >= 0. && tau < 200.)

(* Crash-stop a slow-half node with state wipe. Gradient sync is max-driven,
   so slow nodes must actively chase the fast group: while crashed, node 12
   freewheels at its (minimum) hardware rate and falls demonstrably behind
   its synced neighbors. It must fire no timers while down, fire timers
   again after recovery, and pull its incident-edge skew back below the
   episode band — i.e. the wiped node demonstrably rejoins. *)
let test_crash_wipe_rejoins () =
  let graph = Topology.ring 16 in
  let plan =
    Fault_plan.of_events
      [
        Fault_plan.Node_crash { at = 150.; node = 12 };
        Fault_plan.Node_recover { at = 300.; node = 12; wipe = true };
      ]
  in
  let cfg =
    Runner.config
      ~spec:(Spec.make ~kappa:0.5 ())
      ~drift_of_node:(split_drift ~n:16) ~horizon:500. ~seed:5 ~fault_plan:plan
      graph
  in
  let live = Runner.prepare cfg in
  let timers_while_down = ref 0 and timers_after = ref 0 in
  Engine.add_observer live.Runner.engine (fun t obs ->
      match obs with
      | Engine.Obs_timer { node = 12; _ } ->
          if t > 150.5 && t < 300. then incr timers_while_down
          else if t >= 300. then incr timers_after
      | _ -> ());
  let r = Runner.complete live in
  Alcotest.(check int) "no timers while down" 0 !timers_while_down;
  Alcotest.(check bool) "timers resume after recovery" true (!timers_after > 0);
  let rep = fault_report r in
  let ep = find_episode rep "crash:12 (wipe)" in
  Alcotest.(check bool)
    (Printf.sprintf "freewheeling transient %.3f exceeds band %.3f"
       ep.Fault_metrics.worst_transient ep.Fault_metrics.band)
    true
    (ep.Fault_metrics.worst_transient > ep.Fault_metrics.band);
  (match ep.Fault_metrics.time_to_resync with
  | None -> Alcotest.fail "wiped node never rejoined the band"
  | Some tau ->
      Alcotest.(check bool)
        (Printf.sprintf "finite rejoin %.3f" tau)
        true
        (Float.is_finite tau && tau >= 0.));
  (* Direct check on the final sample: the recovered node's neighborhood is
     back inside the band. *)
  let incident = Fault_plan.resolve_edges graph (Fault_plan.Cut [ 12 ]) in
  let last = r.Runner.samples.(Array.length r.Runner.samples - 1) in
  let final_skew =
    Metrics.skew_on_edges graph incident last.Metrics.values
  in
  Alcotest.(check bool)
    (Printf.sprintf "final incident skew %.3f within band %.3f" final_skew
       ep.Fault_metrics.band)
    true
    (final_skew <= ep.Fault_metrics.band)

(* Crash-stop without recovery on a ring whose halves drift apart, so the
   live neighbours of a crashed node need the fast trigger. Returns the
   run and the skew among never-crashed nodes over the final quarter. *)
let run_crashes ?(spec = Spec.make ()) crashes =
  let graph = Topology.ring 16 in
  let plan =
    Fault_plan.of_events
      (List.map (fun (node, at) -> Fault_plan.Node_crash { at; node }) crashes)
  in
  let r =
    Runner.run
      (Runner.config ~spec ~drift_of_node:(split_drift ~n:16) ~fault_plan:plan
         ~horizon:1000. ~warmup:0. ~seed:89 graph)
  in
  let alive v = not (List.mem_assoc v crashes) in
  (r, Metrics.summarize ~alive graph r.Runner.samples ~after:750.)

let test_crash_baseline () =
  let _, live = run_crashes [] in
  Alcotest.(check bool) "sane skew" true (live.Metrics.max_local < 5.)

(* Estimate expiry ([Spec.staleness_limit]) drops the crashed node's
   frozen estimate, so its neighbours keep synchronizing. *)
let test_crash_survivors_with_expiry () =
  let _, baseline = run_crashes [] in
  let _, crashed = run_crashes [ (12, 200.) ] in
  Alcotest.(check bool)
    (Printf.sprintf "live skew preserved (%.3f vs %.3f)"
       crashed.Metrics.max_local baseline.Metrics.max_local)
    true
    (crashed.Metrics.max_local < baseline.Metrics.max_local +. 0.5)

(* Without expiry a live neighbour keeps extrapolating the dead clock, sees
   a phantom neighbour falling ever further behind, and the blocking
   clause freezes it out of the fast trigger. *)
let test_crash_phantom_without_expiry () =
  let _, with_expiry = run_crashes [ (12, 200.) ] in
  let _, without =
    run_crashes ~spec:(Spec.make ~staleness_limit:1e9 ()) [ (12, 200.) ]
  in
  Alcotest.(check bool)
    (Printf.sprintf "phantom costs skew (%.3f vs %.3f)"
       without.Metrics.max_local with_expiry.Metrics.max_local)
    true
    (without.Metrics.max_local > with_expiry.Metrics.max_local +. 0.2)

(* A crash-stopped node sends nothing, and everything addressed to it is a
   fault drop: fault drops are positive and grow with earlier crashes,
   while the loss-law counter stays untouched. *)
let test_crash_silences_node () =
  let late, _ = run_crashes [ (12, 900.) ] in
  let early, _ = run_crashes [ (12, 100.) ] in
  Alcotest.(check bool) "fault drops recorded" true
    (late.Runner.dropped_faults > 0);
  Alcotest.(check int) "no loss-law drops" 0 late.Runner.dropped;
  Alcotest.(check bool) "earlier crash, more drops" true
    (early.Runner.dropped_faults > late.Runner.dropped_faults)

(* PR 1's sharding contract extended to faulted runs: a batch mixing
   partitions, crash-recover, and message tampering produces identical
   results (samples, counters, fault reports) for any job count. *)
let test_sharding_deterministic_with_faults () =
  let plan s =
    match Fault_plan.of_string s with
    | Ok p -> p
    | Error msg -> Alcotest.failf "bad plan %S: %s" s msg
  in
  let cfgs =
    [|
      Runner.config ~horizon:60. ~seed:3
        ~fault_plan:(plan "partition@15:cut=0; heal@30:cut=0")
        (Topology.ring 8);
      Runner.config ~horizon:60. ~seed:4
        ~fault_plan:
          (plan "crash@10:node=2; recover@25:node=2:wipe; corrupt@5..20:p=0.3:mag=1")
        (Topology.line 9);
      Runner.config ~horizon:60. ~seed:5
        ~fault_plan:(plan "dup@0..40:p=0.2; reorder@10..30:p=0.5:extra=1")
        (Topology.grid ~rows:3 ~cols:3);
    |]
  in
  let serial = Parallel_run.run ~jobs:1 cfgs in
  let sharded = Parallel_run.run ~jobs:3 cfgs in
  Array.iteri
    (fun i (a : Runner.result) ->
      let b = sharded.(i) in
      Alcotest.(check bool)
        (Printf.sprintf "run %d: summary identical" i)
        true
        (a.Runner.summary = b.Runner.summary);
      Alcotest.(check bool)
        (Printf.sprintf "run %d: samples identical" i)
        true
        (a.Runner.samples = b.Runner.samples);
      Alcotest.(check int)
        (Printf.sprintf "run %d: fault drops" i)
        a.Runner.dropped_faults b.Runner.dropped_faults;
      Alcotest.(check bool)
        (Printf.sprintf "run %d: fault report identical" i)
        true
        (a.Runner.fault_report = b.Runner.fault_report))
    serial

(* Satellite property from the issue: any plan whose faults are all healed
   or recovered well before the horizon eventually re-enters the no-fault
   steady-state band — every episode closes and reports a resync time. *)
let qcheck_healed_plans_reenter_band =
  let open QCheck in
  let fault_gen i =
    (* Index-disjoint targets (node 2i) so random faults never interleave on
       the same node or edge, keeping episode pairing unambiguous. *)
    let v = 2 * i in
    Gen.(
      let* t1 = map float_of_int (int_range 40 70) in
      let* d = map float_of_int (int_range 10 30) in
      oneof
        [
          return
            [
              Fault_plan.Link_partition
                { at = t1; edges = Fault_plan.Cut [ v ] };
              Fault_plan.Link_heal
                { at = t1 +. d; edges = Fault_plan.Cut [ v ] };
            ];
          map
            (fun wipe ->
              [
                Fault_plan.Node_crash { at = t1; node = v };
                Fault_plan.Node_recover { at = t1 +. d; node = v; wipe };
              ])
            bool;
          return
            [
              Fault_plan.Msg_duplicate
                {
                  from_ = t1;
                  until = t1 +. d;
                  edges = Fault_plan.All_edges;
                  prob = 0.3;
                };
            ];
        ])
  in
  let plan_gen =
    Gen.(
      let* k = int_range 1 3 in
      let* faults =
        flatten_l (List.init k fault_gen)
      in
      let* seed = int_range 0 1000 in
      return (Fault_plan.of_events (List.concat faults), seed))
  in
  let arb =
    QCheck.make plan_gen ~print:(fun (p, seed) ->
        Printf.sprintf "seed=%d %s" seed (Fault_plan.to_string p))
  in
  QCheck.Test.make ~count:15 ~name:"healed plans re-enter the band" arb
    (fun (plan, seed) ->
      let cfg =
        Runner.config ~horizon:300. ~seed ~fault_plan:plan (Topology.ring 8)
      in
      let rep = fault_report (Runner.run cfg) in
      List.for_all
        (fun (e : Fault_metrics.episode_report) ->
          e.Fault_metrics.stop <> None
          && e.Fault_metrics.time_to_resync <> None)
        rep.Fault_metrics.episodes)

(* The Byzantine machinery must be a no-op when it does nothing: a plan
   whose only event is a zero-magnitude constant lie rewrites every beacon
   to its own value, and the lie PRNG streams are split after all other
   streams, so the run must be bit-identical — samples, summary, message
   counts — to the same config with no fault plan at all. *)
let qcheck_null_lie_is_invisible =
  let open QCheck in
  let gen =
    Gen.(
      let* seed = int_range 0 1000 in
      let* node = int_range 0 7 in
      let* algo =
        oneofl
          [
            Gcs_core.Algorithm.Gradient_sync;
            Gcs_core.Algorithm.Ft_gradient_sync 1;
            Gcs_core.Algorithm.Tree_sync;
          ]
      in
      return (seed, node, algo))
  in
  let arb =
    QCheck.make gen ~print:(fun (seed, node, algo) ->
        Printf.sprintf "seed=%d liar=%d algo=%s" seed node
          (Gcs_core.Algorithm.kind_name algo))
  in
  QCheck.Test.make ~count:15 ~name:"zero-magnitude lie is invisible" arb
    (fun (seed, node, algo) ->
      let graph = Topology.ring 8 in
      let plan =
        Fault_plan.of_events
          [
            Fault_plan.Byzantine
              {
                from_ = 20.;
                until = 60.;
                node;
                strategy = Fault_plan.Lie_constant 0.;
              };
          ]
      in
      let run fault_plan =
        Runner.run (Runner.config ~algo ~horizon:80. ~seed ?fault_plan graph)
      in
      let a = run None and b = run (Some plan) in
      a.Runner.samples = b.Runner.samples
      && a.Runner.summary = b.Runner.summary
      && a.Runner.messages = b.Runner.messages)

(* Sharding stays bit-identical when the plans lie: Byzantine configs over
   every strategy produce the same samples and fault reports (lied counts
   included) for any job count. *)
let qcheck_sharding_deterministic_with_byzantine =
  let open QCheck in
  let gen =
    Gen.(
      let* seed = int_range 0 1000 in
      let* strategy =
        oneofl
          [
            Fault_plan.Lie_constant 5.;
            Fault_plan.Lie_constant (-5.);
            Fault_plan.Lie_drifting 0.2;
            Fault_plan.Lie_random 5.;
            Fault_plan.Lie_equivocate 5.;
          ]
      in
      return (seed, strategy))
  in
  let arb =
    QCheck.make gen ~print:(fun (seed, s) ->
        Printf.sprintf "seed=%d strategy=%s" seed
          (Fault_plan.to_string
             (Fault_plan.of_events
                [ Fault_plan.Byzantine { from_ = 0.; until = 1.; node = 0; strategy = s } ])))
  in
  QCheck.Test.make ~count:10 ~name:"sharding deterministic under liars" arb
    (fun (seed, strategy) ->
      let plan node =
        Fault_plan.of_events
          [ Fault_plan.Byzantine { from_ = 15.; until = 45.; node; strategy } ]
      in
      let cfgs =
        [|
          Runner.config ~horizon:60. ~seed ~fault_plan:(plan 2)
            (Topology.ring 8);
          Runner.config ~horizon:60. ~seed:(seed + 1) ~fault_plan:(plan 4)
            ~algo:(Gcs_core.Algorithm.Ft_gradient_sync 1) (Topology.line 9);
          Runner.config ~horizon:60. ~seed:(seed + 2) ~fault_plan:(plan 3)
            (Topology.grid ~rows:3 ~cols:3);
        |]
      in
      let serial = Parallel_run.run ~jobs:1 cfgs in
      let sharded = Parallel_run.run ~jobs:3 cfgs in
      Array.for_all2
        (fun (a : Runner.result) (b : Runner.result) ->
          a.Runner.samples = b.Runner.samples
          && a.Runner.fault_report = b.Runner.fault_report)
        serial sharded)

let suite =
  [
    Alcotest.test_case "partition-heal: finite resync on ring:64" `Quick
      test_partition_heal_ring64;
    Alcotest.test_case "crash-wipe: node rejoins" `Quick
      test_crash_wipe_rejoins;
    Alcotest.test_case "crash: no-crash baseline" `Quick test_crash_baseline;
    Alcotest.test_case "crash: survivors with expiry" `Quick
      test_crash_survivors_with_expiry;
    Alcotest.test_case "crash: phantom, no expiry" `Quick
      test_crash_phantom_without_expiry;
    Alcotest.test_case "crash: node falls silent" `Quick
      test_crash_silences_node;
    Alcotest.test_case "sharding deterministic with faults" `Quick
      test_sharding_deterministic_with_faults;
    QCheck_alcotest.to_alcotest qcheck_healed_plans_reenter_band;
    QCheck_alcotest.to_alcotest qcheck_null_lie_is_invisible;
    QCheck_alcotest.to_alcotest qcheck_sharding_deterministic_with_byzantine;
  ]
