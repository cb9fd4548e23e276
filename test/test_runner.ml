module Topology = Gcs_graph.Topology
module Spec = Gcs_core.Spec
module Algorithm = Gcs_core.Algorithm
module Runner = Gcs_core.Runner
module Metrics = Gcs_core.Metrics
module Engine = Gcs_sim.Engine

let spec = Spec.make ()

let base_cfg ?(algo = Algorithm.Gradient_sync) ?(seed = 9) () =
  Runner.config ~spec ~algo ~horizon:100. ~sample_period:1. ~seed
    (Topology.ring 6)

let test_sampling_cadence () =
  let r = Runner.run (base_cfg ()) in
  (* t0 = 0 through horizon 100 inclusive, every 1.0. *)
  Alcotest.(check int) "sample count" 101 (Array.length r.Runner.samples);
  Alcotest.(check (float 1e-9)) "first at 0" 0. r.Runner.samples.(0).Metrics.time;
  Alcotest.(check (float 1e-9)) "last at horizon" 100.
    r.Runner.samples.(100).Metrics.time

let test_determinism_across_runs () =
  let run () =
    let r = Runner.run (base_cfg ()) in
    ( r.Runner.summary.Metrics.max_local,
      r.Runner.summary.Metrics.max_global,
      r.Runner.messages,
      r.Runner.events )
  in
  Alcotest.(check bool) "identical replay" true (run () = run ())

let test_seed_changes_execution () =
  let result seed = (Runner.run (base_cfg ~seed ())).Runner.summary in
  Alcotest.(check bool) "different seeds, different skews" true
    (result 1 <> result 2)

let test_prepare_complete_equals_run () =
  let direct = Runner.run (base_cfg ()) in
  let split = Runner.complete (Runner.prepare (base_cfg ())) in
  Alcotest.(check bool) "same summary" true
    (direct.Runner.summary = split.Runner.summary)

let test_snapshot_live () =
  let live = Runner.prepare (base_cfg ()) in
  Engine.run_until live.Runner.engine 50.;
  let s = Runner.snapshot live in
  Alcotest.(check (float 1e-9)) "snapshot time" 50. s.Metrics.time;
  Alcotest.(check int) "snapshot width" 6 (Array.length s.Metrics.values);
  (* Clocks progressed roughly with real time. *)
  Array.iter
    (fun v -> Alcotest.(check bool) "progressed" true (v > 40. && v < 60.))
    s.Metrics.values

let test_config_validation () =
  let g = Topology.ring 4 in
  (match Runner.config ~horizon:0. g with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "accepted zero horizon");
  match Runner.config ~sample_period:0. g with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "accepted zero sample period"

(* Every test is written so that NaN fails it: a NaN time breaks the event
   queue's order and an infinite horizon never ends. A key carrying such a
   value (a hand-edited .repro, say) gets a typed error back. *)
let test_non_finite_config_refused () =
  let g = Topology.ring 4 in
  let refused name f =
    match f () with
    | exception Invalid_argument _ -> ()
    | (_ : Runner.config) -> Alcotest.failf "accepted %s" name
  in
  refused "horizon nan" (fun () -> Runner.config ~horizon:nan g);
  refused "horizon inf" (fun () -> Runner.config ~horizon:infinity g);
  refused "sample period nan" (fun () -> Runner.config ~sample_period:nan g);
  refused "sample period inf" (fun () ->
      Runner.config ~sample_period:infinity g);
  refused "warmup nan" (fun () -> Runner.config ~warmup:nan g);
  refused "series period nan" (fun () ->
      Runner.config ~obs:(Gcs_obs.Capture.full ~series_period:nan ()) g);
  refused "loss nan" (fun () ->
      Runner.config ~loss:(Runner.Uniform_loss nan) g);
  let key ?loss horizon =
    Runner.store_key ?loss ~spec ~topology:(Topology.Ring 4)
      ~algo:Algorithm.Gradient_sync ~horizon ~seed:1 ()
  in
  let typed_error name k =
    match Runner.config_of_key k with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "key with %s accepted" name
  in
  typed_error "horizon=nan" (key nan);
  typed_error "horizon=inf" (key infinity);
  typed_error "loss=nan" (key ~loss:nan 10.);
  match Runner.config_of_key (key 10.) with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e

let test_bad_spec_rejected () =
  let g = Topology.ring 4 in
  let bad_spec = { spec with Spec.mu = spec.Spec.rho /. 2. } in
  let cfg = Runner.config ~spec:bad_spec g in
  match Runner.prepare cfg with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "accepted mu <= rho"

let test_delay_kinds_all_run () =
  List.iter
    (fun delay_kind ->
      let cfg =
        Runner.config ~spec ~algo:Algorithm.Gradient_sync ~delay_kind
          ~horizon:50. ~seed:3 (Topology.line 4)
      in
      let r = Runner.run cfg in
      Alcotest.(check bool) "produced samples" true
        (Array.length r.Runner.samples > 0))
    [
      Runner.Uniform_delays;
      Runner.Controlled_delays;
      Runner.Per_edge_delays (fun _ -> spec.Spec.delay);
    ]

let test_warmup_excludes_transient () =
  (* Start with a huge initial skew; the post-warm-up summary of a gradient
     run must not include the initial value. *)
  let cfg =
    Runner.config ~spec ~algo:Algorithm.Gradient_sync
      ~initial_value_of_node:(fun v -> if v = 0 then 50. else 0.)
      ~horizon:600. ~warmup:500. ~seed:5 (Topology.line 4)
  in
  let r = Runner.run cfg in
  Alcotest.(check bool) "transient excluded" true
    (r.Runner.summary.Metrics.max_global < 50.)

let test_warmup_past_horizon () =
  (* A warm-up at or beyond the horizon leaves no qualifying samples; the
     runner must fall back to summarizing everything, not trap. *)
  let cfg =
    Runner.config ~spec ~algo:Algorithm.Gradient_sync ~horizon:20.
      ~warmup:50. ~seed:4 (Topology.ring 5)
  in
  let r = Runner.run cfg in
  Alcotest.(check int) "all samples summarized" 21
    r.Runner.summary.Metrics.samples_used

let test_chooser_cleared_after_complete () =
  (* The chooser's lifetime ends with the run it was installed for:
     [complete] must reset the cell so the closure the delay model captured
     can never fire in a later reuse of the engine. *)
  let cfg =
    Runner.config ~spec ~algo:Algorithm.Gradient_sync
      ~delay_kind:Runner.Controlled_delays ~horizon:20. ~seed:3
      (Topology.line 3)
  in
  let live = Runner.prepare cfg in
  live.Runner.chooser := Some (fun ~edge:_ ~src:_ ~dst:_ ~now:_ -> 1.5);
  let _ = Runner.complete live in
  Alcotest.(check bool) "chooser reset to None" true
    (!(live.Runner.chooser) = None)

let test_controlled_then_default_identical () =
  (* Regression for the chooser-ref lifecycle: an adversarial controlled
     run sandwiched between two plain controlled runs must leave the second
     plain run bit-identical to the first. Max-sync because its jumps make
     the samples delay-sensitive (gradient's multiplier trigger never
     engages at this scale, so delays cannot move its samples). *)
  let cfg =
    Runner.config ~spec ~algo:Algorithm.Max_sync
      ~delay_kind:Runner.Controlled_delays ~horizon:50. ~seed:7
      (Topology.line 4)
  in
  let baseline = Runner.run cfg in
  let live = Runner.prepare cfg in
  live.Runner.chooser := Some (fun ~edge:_ ~src:_ ~dst:_ ~now:_ -> 1.5);
  let adversarial = Runner.complete live in
  let after = Runner.run cfg in
  Alcotest.(check bool) "adversary actually changed the run" true
    (adversarial.Runner.summary <> baseline.Runner.summary);
  Alcotest.(check bool) "default behavior bit-identical afterwards" true
    (after.Runner.summary = baseline.Runner.summary
    && after.Runner.samples = baseline.Runner.samples
    && after.Runner.messages = baseline.Runner.messages)

let test_stop_during_fault_episode () =
  (* Stopping mid-fault-episode, before the warm-up: no dispatch happens
     after the stop, and the partial-summary fallback summarizes every
     collected sample instead of trapping on an empty window. *)
  let plan =
    Gcs_sim.Fault_plan.of_events
      [
        Gcs_sim.Fault_plan.Node_crash { at = 10.; node = 0 };
        Gcs_sim.Fault_plan.Node_recover { at = 30.; node = 0; wipe = false };
      ]
  in
  let cfg =
    Runner.config ~spec ~algo:Algorithm.Gradient_sync ~horizon:100.
      ~warmup:50. ~seed:3 ~fault_plan:plan (Topology.ring 5)
  in
  let live = Runner.prepare cfg in
  let engine = live.Runner.engine in
  Engine.schedule_control engine ~at:15. (fun () ->
      Engine.request_stop engine);
  let r = Runner.complete live in
  Alcotest.(check bool) "stopped inside the episode" true
    (Engine.now engine >= 10. && Engine.now engine <= 15.);
  let events = Engine.events_processed engine in
  Engine.run_until engine 100.;
  Alcotest.(check int) "no dispatches after stop" events
    (Engine.events_processed engine);
  Alcotest.(check bool) "some samples collected" true
    (Array.length r.Runner.samples > 0);
  Alcotest.(check int) "fallback summarized every collected sample"
    (Array.length r.Runner.samples)
    r.Runner.summary.Metrics.samples_used;
  Array.iter
    (fun s ->
      Alcotest.(check bool) "all samples pre-warmup" true
        (s.Metrics.time < 50.))
    r.Runner.samples

let test_obs_empty_by_default () =
  let r = Runner.run (base_cfg ()) in
  Alcotest.(check bool) "no sinks captured" true
    (r.Runner.obs = Gcs_obs.Capture.empty)

let test_per_edge_delay_kind () =
  let bounds e =
    if e = 0 then Gcs_sim.Delay_model.bounds ~d_min:0.1 ~d_max:0.2
    else Gcs_sim.Delay_model.bounds ~d_min:1. ~d_max:1.5
  in
  let cfg =
    Runner.config ~spec ~algo:Algorithm.Gradient_sync
      ~delay_kind:(Runner.Per_edge_delays bounds) ~horizon:50. ~seed:3
      (Topology.line 4)
  in
  let r = Runner.run cfg in
  Alcotest.(check bool) "runs" true (Array.length r.Runner.samples > 0)

let test_override_used () =
  (* An override that never sends anything must behave like free-run even
     though algo says gradient. *)
  let silent =
    {
      Gcs_core.Algorithm.name = "silent";
      prepare =
        (fun _ _ ->
          {
            Gcs_sim.Engine.on_init = (fun _ -> ());
            on_message = (fun _ ~port:_ _ -> ());
            on_timer = (fun _ ~tag:_ -> ());
          });
    }
  in
  let cfg =
    Runner.config ~spec ~algo:Algorithm.Gradient_sync ~override:silent
      ~horizon:50. ~seed:3 (Topology.ring 5)
  in
  let r = Runner.run cfg in
  Alcotest.(check int) "no messages" 0 r.Runner.messages

let test_uniform_loss () =
  let graph = Topology.ring 10 in
  let run loss =
    Runner.run
      (Runner.config ~spec ~algo:Algorithm.Gradient_sync ~loss ~horizon:200.
         ~seed:9 graph)
  in
  let none = run Runner.No_loss in
  let half = run (Runner.Uniform_loss 0.5) in
  let all = run (Runner.Uniform_loss 1.0) in
  Alcotest.(check int) "no loss drops nothing" 0 none.Runner.dropped;
  Alcotest.(check bool) "half loss drops about half" true
    (let f =
       float_of_int half.Runner.dropped /. float_of_int half.Runner.messages
     in
     Float.abs (f -. 0.5) < 0.1);
  Alcotest.(check int) "total loss delivers nothing"
    all.Runner.messages all.Runner.dropped

let test_total_loss_equals_free_run () =
  (* With every message dropped, the gradient algorithm can never see a
     neighbor: behaviour must degrade to free-running clocks. *)
  let graph = Topology.ring 10 in
  let run ~algo ~loss =
    (Runner.run
       (Runner.config ~spec ~algo ~loss ~horizon:300. ~seed:11 graph))
      .Runner.summary
  in
  let deaf = run ~algo:Algorithm.Gradient_sync ~loss:(Runner.Uniform_loss 1.0) in
  let free = run ~algo:Algorithm.Free_run ~loss:Runner.No_loss in
  Alcotest.(check (float 1e-9)) "same skew as free-run"
    free.Metrics.max_global deaf.Metrics.max_global

let test_loss_validation () =
  let graph = Topology.ring 6 in
  match Runner.config ~loss:(Runner.Uniform_loss 1.5) graph with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "accepted loss > 1"

let suite =
  [
    Alcotest.test_case "sampling cadence" `Quick test_sampling_cadence;
    Alcotest.test_case "determinism" `Quick test_determinism_across_runs;
    Alcotest.test_case "seed sensitivity" `Quick test_seed_changes_execution;
    Alcotest.test_case "prepare/complete = run" `Quick test_prepare_complete_equals_run;
    Alcotest.test_case "snapshot" `Quick test_snapshot_live;
    Alcotest.test_case "config validation" `Quick test_config_validation;
    Alcotest.test_case "bad spec rejected" `Quick test_bad_spec_rejected;
    Alcotest.test_case "non-finite config refused" `Quick
      test_non_finite_config_refused;
    Alcotest.test_case "all delay kinds" `Quick test_delay_kinds_all_run;
    Alcotest.test_case "warmup excludes transient" `Quick test_warmup_excludes_transient;
    Alcotest.test_case "warmup past horizon" `Quick test_warmup_past_horizon;
    Alcotest.test_case "chooser cleared after complete" `Quick
      test_chooser_cleared_after_complete;
    Alcotest.test_case "controlled then default identical" `Quick
      test_controlled_then_default_identical;
    Alcotest.test_case "stop during fault episode" `Quick
      test_stop_during_fault_episode;
    Alcotest.test_case "obs empty by default" `Quick test_obs_empty_by_default;
    Alcotest.test_case "per-edge delays" `Quick test_per_edge_delay_kind;
    Alcotest.test_case "override used" `Quick test_override_used;
    Alcotest.test_case "uniform loss" `Quick test_uniform_loss;
    Alcotest.test_case "total loss = free run" `Quick
      test_total_loss_equals_free_run;
    Alcotest.test_case "loss validation" `Quick test_loss_validation;
  ]
