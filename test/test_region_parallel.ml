(* Byte-identity of conservative region-parallel execution.

   The region-parallel engine is an execution strategy, not a semantics:
   for every supported configuration and every domain count it must
   reproduce the serial engine's results *bit for bit* — summaries,
   samples, counters, and the full observation stream. These tests pin
   that equivalence on the golden configs (every registered algorithm,
   plus the faulted and Byzantine golden rows) and on randomized
   faulted/Byzantine configurations, at several region counts. Every
   engine counter is compared too, so a count that only a window's barrier
   replay makes (a cross-region lie, corruption, duplicate or loss) cannot
   go missing unseen.

   Each parallel run asserts it actually executed with [regions > 1]
   (via [Engine.regions]) so a silent serial fallback can never
   masquerade as a passing identity check. *)

module Topology = Gcs_graph.Topology
module Drift = Gcs_clock.Drift
module Spec = Gcs_core.Spec
module Algorithm = Gcs_core.Algorithm
module Runner = Gcs_core.Runner
module Engine = Gcs_sim.Engine
module Delay_model = Gcs_sim.Delay_model
module Fault_plan = Gcs_sim.Fault_plan
module Hardware_clock = Gcs_clock.Hardware_clock
module Prng = Gcs_util.Prng
module Capture = Gcs_obs.Capture
module Event_log = Gcs_obs.Event_log

let region_counts = [ 2; 3; 4 ]

(* The golden config of test_golden.ml: ring:8, kappa 0.5, split extreme
   drift, horizon 80, seed 7. *)
let golden_cfg ?fault_plan ?obs ?(regions = 1) algo =
  Runner.config
    ~spec:(Spec.make ~kappa:0.5 ())
    ~algo
    ~drift_of_node:(fun v ->
      if v < 4 then Drift.Extreme_high else Drift.Extreme_low)
    ~horizon:80. ~seed:7 ?fault_plan ?obs ~regions
    (Topology.ring 8)

let plan_of_string s =
  match Fault_plan.of_string s with
  | Ok p -> p
  | Error msg -> Alcotest.failf "plan did not parse: %s (%s)" s msg

let faulted_plan () =
  plan_of_string
    "partition@20:cut=0; heal@40:cut=0; crash@50:node=5; \
     recover@60:node=5:wipe; corrupt@30..45:p=0.3:mag=1"

let byzantine_plan () =
  plan_of_string "byz@20..60:node=5:equiv=3; byz@30..50:node=2:mag=2"

(* Every engine counter, named, read after a run. *)
let counters e =
  [
    ("events", Engine.events_processed e);
    ("sent", Engine.messages_sent e);
    ("delivered", Engine.messages_delivered e);
    ("dropped", Engine.messages_dropped e);
    ("dropped_faults", Engine.messages_dropped_faults e);
    ("duplicated", Engine.messages_duplicated e);
    ("corrupted", Engine.messages_corrupted e);
    ("lied", Engine.messages_lied e);
    ("dispatch deliver", Engine.dispatch_count e Engine.Dispatch_deliver);
    ("dispatch timer", Engine.dispatch_count e Engine.Dispatch_timer);
    ("dispatch control", Engine.dispatch_count e Engine.Dispatch_control);
  ]

(* Run a config; report the engine's *effective* region count, the result
   and the engine's counters. *)
let run_counted cfg =
  let live = Runner.prepare cfg in
  let eff = Engine.regions live.Runner.engine in
  let result = Runner.complete live in
  (eff, result, counters live.Runner.engine)

let run_with cfg =
  let eff, result, _ = run_counted cfg in
  (eff, result)

(* Exact equality — no tolerance anywhere: identity means identical bits.
   [Runner.outcome] flattens the summary, message/drop/jump counters, and
   the fault report into a closure-free record, so structural equality
   covers all of it; samples and every engine counter are checked on top. *)
let check_identical label (serial, scount) (par, pcount) =
  Alcotest.(check bool)
    (label ^ ": outcome identical")
    true
    (Runner.outcome serial = Runner.outcome par);
  Alcotest.(check bool)
    (label ^ ": samples identical")
    true
    (serial.Runner.samples = par.Runner.samples);
  List.iter2
    (fun (name, s) (_, p) -> Alcotest.(check int) (label ^ ": " ^ name) s p)
    scount pcount

let test_golden_rows_identical () =
  let rows =
    List.map (fun algo -> (Algorithm.kind_name algo, algo, None))
      Algorithm.all_kinds
    @ [
        ("gradient+faults", Algorithm.Gradient_sync, Some (faulted_plan ()));
        ( "ft-gradient+byz",
          Algorithm.Ft_gradient_sync 1,
          Some (byzantine_plan ()) );
      ]
  in
  List.iter
    (fun (name, algo, fault_plan) ->
      let _, serial, scount = run_counted (golden_cfg ?fault_plan algo) in
      List.iter
        (fun regions ->
          let label = Printf.sprintf "%s x%d" name regions in
          let eff, par, pcount =
            run_counted (golden_cfg ?fault_plan ~regions algo)
          in
          Alcotest.(check int) (label ^ ": ran parallel") regions eff;
          check_identical label (serial, scount) (par, pcount))
        region_counts)
    rows

(* The full observation stream — rendered through the event log, the same
   bytes the trace exporter and conformance monitors consume — must be
   identical too: not just the same multiset of observations, but the same
   serial order. *)
let test_event_log_identical () =
  let obs = { Capture.none with Capture.events = true } in
  List.iter
    (fun (name, plan) ->
      let log_string r =
        match r.Runner.obs.Capture.event_log with
        | Some log -> Event_log.to_string log
        | None -> Alcotest.fail "event log missing"
      in
      let _, serial =
        run_with (golden_cfg ~fault_plan:(plan ()) ~obs Algorithm.Gradient_sync)
      in
      let sbytes = log_string serial in
      Alcotest.(check bool) (name ^ ": serial log nonempty") true
        (String.length sbytes > 0);
      List.iter
        (fun regions ->
          let eff, par =
            run_with
              (golden_cfg ~fault_plan:(plan ()) ~obs ~regions
                 Algorithm.Gradient_sync)
          in
          Alcotest.(check int)
            (Printf.sprintf "%s x%d: ran parallel" name regions)
            regions eff;
          Alcotest.(check bool)
            (Printf.sprintf "%s x%d: event log byte-identical" name regions)
            true
            (String.equal sbytes (log_string par)))
        region_counts)
    [ ("faulted", faulted_plan); ("byzantine", byzantine_plan) ]

(* Fallback gating: configurations the parallel engine cannot reproduce
   bit-for-bit must resolve to one region; plain ones must not. *)
let test_fallback_gates () =
  let eff cfg = fst (run_with cfg) in
  Alcotest.(check int) "plain config runs parallel" 4
    (eff (golden_cfg ~regions:4 Algorithm.Gradient_sync));
  Alcotest.(check int) "profiled run falls back to serial" 1
    (eff
       (golden_cfg ~regions:4
          ~obs:{ Capture.none with Capture.profile = true }
          Algorithm.Gradient_sync));
  let controlled =
    Runner.config
      ~spec:(Spec.make ~kappa:0.5 ())
      ~delay_kind:Runner.Controlled_delays ~horizon:20. ~seed:7 ~regions:4
      (Topology.ring 8)
  in
  Alcotest.(check int) "controlled delays fall back to serial" 1
    (eff controlled);
  let byz_lossy =
    Runner.config
      ~spec:(Spec.make ~kappa:0.5 ())
      ~algo:(Algorithm.Ft_gradient_sync 1)
      ~loss:(Runner.Uniform_loss 0.1) ~horizon:20. ~seed:7 ~regions:4
      ~fault_plan:(byzantine_plan ()) (Topology.ring 8)
  in
  Alcotest.(check int) "byzantine + loss falls back to serial" 1
    (eff byz_lossy);
  let byz_lossless =
    Runner.config
      ~spec:(Spec.make ~kappa:0.5 ())
      ~algo:(Algorithm.Ft_gradient_sync 1)
      ~horizon:20. ~seed:7 ~regions:4 ~fault_plan:(byzantine_plan ())
      (Topology.ring 8)
  in
  Alcotest.(check int) "byzantine without loss runs parallel" 4
    (eff byz_lossless)

(* The engine itself runs a lie under message loss serially, whoever
   builds it: a window asks a cross-region lie before the barrier's loss
   draw, which the serial engine makes first. *)
let test_engine_lie_loss_fallback () =
  let graph = Topology.ring 8 in
  let regions_for ~loss =
    let delays =
      Delay_model.with_loss loss
        (Delay_model.uniform (Delay_model.bounds ~d_min:0.5 ~d_max:1.))
    in
    Engine.regions
      (Engine.of_config
         (Engine.config ~regions:4
            ~lie:(fun ~src:_ ~dst:_ ~now:_ ~rng:_ () -> None)
            ~graph
            ~clocks:
              (Array.init 8 (fun _ -> Hardware_clock.create ~t0:0. ~rate:1. ()))
            ~delays ~rng:(Prng.create ~seed:1)
            ~make_node:(fun _ ->
              {
                Engine.on_init = (fun _ -> ());
                on_message = (fun _ ~port:_ () -> ());
                on_timer = (fun _ ~tag:_ -> ());
              })
            ~t0:0. ()))
  in
  Alcotest.(check int) "lie under loss runs serially" 1 (regions_for ~loss:0.1);
  Alcotest.(check int) "lie without loss runs parallel" 4
    (regions_for ~loss:0.)

(* ------------------------------------------------------------------ *)
(* Randomized identity: arbitrary faulted and Byzantine configurations  *)
(* across topologies, seeds, loss laws, and domain counts.              *)
(* ------------------------------------------------------------------ *)

type scenario = {
  topo : int; (* 0: ring, 1: grid, 2: line *)
  nodes : int;
  seed : int;
  algo_ft : bool;
  loss : bool;
  plan : int; (* 0: none, 1: faulted battery, 2: byzantine *)
  regions : int;
}

let scenario_gen =
  QCheck.Gen.(
    map
      (fun (topo, nodes, seed, algo_ft, loss, plan, regions) ->
        { topo; nodes; seed; algo_ft; loss; plan; regions })
      (tup7 (int_range 0 2) (int_range 6 14) (int_range 0 10_000) bool bool
         (int_range 0 2) (int_range 2 4)))

let scenario_print s =
  Printf.sprintf "{topo=%d; nodes=%d; seed=%d; ft=%b; loss=%b; plan=%d; x%d}"
    s.topo s.nodes s.seed s.algo_ft s.loss s.plan s.regions

let scenario_cfg s ~regions =
  let graph =
    match s.topo with
    | 0 -> Topology.ring s.nodes
    | 1 -> Topology.grid ~rows:2 ~cols:((s.nodes + 1) / 2)
    | _ -> Topology.line s.nodes
  in
  let fault_plan =
    match s.plan with
    | 0 -> None
    | 1 ->
        Some
          (plan_of_string
             (Printf.sprintf
                "partition@10:edges=0-1; heal@25:edges=0-1; crash@15:node=%d; \
                 recover@30:node=%d:wipe; corrupt@5..20:p=0.25:mag=0.5; \
                 dup@10..30:p=0.2; reorder@12..28:p=0.2:extra=0.7"
                (s.nodes - 1) (s.nodes - 1)))
    | _ ->
        Some
          (plan_of_string
             (Printf.sprintf "byz@5..30:node=1:equiv=2; byz@10..25:node=%d:mag=1"
                (s.nodes - 2)))
  in
  let loss =
    if s.loss then Runner.Uniform_loss 0.15 else Runner.No_loss
  in
  Runner.config
    ~spec:(Spec.make ~kappa:0.5 ())
    ~algo:(if s.algo_ft then Algorithm.Ft_gradient_sync 1
           else Algorithm.Gradient_sync)
    ~drift_of_node:(fun v -> if v mod 2 = 0 then Drift.Extreme_high
                             else Drift.Random_constant)
    ~loss ~horizon:40. ~seed:s.seed ?fault_plan ~regions graph

let prop_random_configs_identical =
  QCheck.Test.make ~name:"random faulted/byzantine configs: parallel = serial"
    ~count:40
    (QCheck.make ~print:scenario_print scenario_gen)
    (fun s ->
      let _, serial, scount = run_counted (scenario_cfg s ~regions:1) in
      let _, par, pcount = run_counted (scenario_cfg s ~regions:s.regions) in
      Runner.outcome serial = Runner.outcome par
      && serial.Runner.samples = par.Runner.samples
      && scount = pcount)

(* The engine builds an observation only when an observer is attached, so
   attaching one must change nothing else: for every registered algorithm,
   serial and at two regions, a run with an observer that only counts its
   calls has the samples (bit for bit), outcome and engine counters of the
   same run without it, and runs at the same region count. Each case runs
   with no plan, the faulted battery and the Byzantine plan, which put
   lies, corruptions, duplicates, fault drops and crashes on both
   paths. *)
let prop_observer_invisible =
  let gen =
    QCheck.Gen.(tup3 (int_range 0 2) (int_range 6 12) (int_range 0 10_000))
  in
  let print (topo, nodes, seed) =
    Printf.sprintf "{topo=%d; nodes=%d; seed=%d}" topo nodes seed
  in
  QCheck.Test.make ~name:"a no-op observer changes no result or counter"
    ~count:6
    (QCheck.make ~print gen)
    (fun (topo, nodes, seed) ->
      let run (plan, algo) ~regions ~observe =
        let s =
          { topo; nodes; seed; algo_ft = false; loss = false; plan; regions }
        in
        let live =
          Runner.prepare { (scenario_cfg s ~regions) with Runner.algo }
        in
        let seen = ref 0 in
        if observe then
          Engine.add_observer live.Runner.engine (fun _ _ -> incr seen);
        let eff = Engine.regions live.Runner.engine in
        let result = Runner.complete live in
        (eff, result, counters live.Runner.engine, !seen)
      in
      let sample_bits (r : Runner.result) =
        Array.map
          (fun s ->
            ( Int64.bits_of_float s.Gcs_core.Metrics.time,
              Array.map Int64.bits_of_float s.Gcs_core.Metrics.values ))
          r.Runner.samples
      in
      List.for_all
        (fun case ->
          List.for_all
            (fun regions ->
              let eff, bare, bcount, _ = run case ~regions ~observe:false in
              let oeff, obs, ocount, seen = run case ~regions ~observe:true in
              (* Free running dispatches nothing but the probes, which
                 report no observation. *)
              let handled =
                List.assoc "dispatch deliver" ocount
                + List.assoc "dispatch timer" ocount
              in
              eff = oeff
              && (seen > 0 || handled = 0)
              && Runner.outcome bare = Runner.outcome obs
              && sample_bits bare = sample_bits obs
              && bcount = ocount)
            [ 1; 2 ])
        (List.concat_map
           (fun plan ->
             List.map (fun (algo, _) -> (plan, algo)) Gcs_core.Registry.all)
           [ 0; 1; 2 ]))

let suite =
  [
    Alcotest.test_case "golden rows identical at 2/3/4 regions" `Quick
      test_golden_rows_identical;
    Alcotest.test_case "event log byte-identical (faulted, byzantine)" `Quick
      test_event_log_identical;
    Alcotest.test_case "fallback gates" `Quick test_fallback_gates;
    Alcotest.test_case "engine runs a lie under loss serially" `Quick
      test_engine_lie_loss_fallback;
    QCheck_alcotest.to_alcotest prop_random_configs_identical;
    QCheck_alcotest.to_alcotest prop_observer_invisible;
  ]
