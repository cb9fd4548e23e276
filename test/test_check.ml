(* Tests for the gcs.check conformance harness: online invariant
   monitors, the delta-debugging shrinker, .repro artifacts, and the
   conformance battery. *)

module Spec = Gcs_core.Spec
module Algorithm = Gcs_core.Algorithm
module Runner = Gcs_core.Runner
module Topology = Gcs_graph.Topology
module Fault_plan = Gcs_sim.Fault_plan
module Search = Gcs_adversary.Search
module Monitor = Gcs_check.Monitor
module Check_run = Gcs_check.Check_run
module Shrink = Gcs_check.Shrink
module Repro = Gcs_check.Repro
module Key = Gcs_store.Key

let spec = Spec.make ()

let plan s =
  match Fault_plan.of_string s with
  | Ok p -> p
  | Error e -> Alcotest.failf "bad plan %S: %s" s e

let key ?fault_plan ?(topology = Topology.Ring 8)
    ?(algo = Algorithm.Gradient_sync) ?(horizon = 100.) ?(seed = 42) () =
  Runner.store_key ?fault_plan ~spec ~topology ~algo ~horizon ~seed ()

let config k =
  match Runner.config_of_key k with
  | Ok c -> c
  | Error e -> Alcotest.failf "config_of_key: %s" e

let algo_of_key k =
  match Algorithm.kind_of_string k.Key.algo with
  | Ok a -> a
  | Error e -> Alcotest.failf "algo_of_string: %s" e

let kind = Alcotest.testable
    (fun ppf k -> Format.pp_print_string ppf (Monitor.kind_name k))
    ( = )

let violation_of (checked : Check_run.checked) =
  match checked.Check_run.violation with
  | Some v -> v
  | None -> Alcotest.fail "expected a violation, run was clean"

(* A negative clock jump is exactly what the monotonicity monitor must
   catch: the engine observation fires before the handler, so detection
   lands on the node's next event after the jump. *)
let test_monitor_detects_jump () =
  let k = key ~fault_plan:(plan "jump@50:node=3:delta=-5") () in
  let v = violation_of (Check_run.run (config k)) in
  Alcotest.check kind "kind" Monitor.Monotonic v.Monitor.kind;
  Alcotest.(check int) "node" 3 v.Monitor.node;
  Alcotest.(check bool) "after the jump" true (v.Monitor.time >= 50.);
  Alcotest.(check bool) "went backwards" true
    (v.Monitor.observed < v.Monitor.bound)

let test_monitor_detects_rate_fault () =
  let k = key ~fault_plan:(plan "rate@25:node=2:rate=2.0") () in
  let v = violation_of (Check_run.run (config k)) in
  Alcotest.check kind "kind" Monitor.Rate v.Monitor.kind;
  Alcotest.(check int) "node" 2 v.Monitor.node;
  Alcotest.(check bool) "rate above envelope" true
    (v.Monitor.observed > v.Monitor.bound)

(* Flight-recorder promise: monitoring a conforming run reports nothing
   and perturbs nothing — the monitored summary is identical to the bare
   run's. *)
let test_clean_run_identical_summary () =
  let k = key () in
  let bare = Runner.run (config k) in
  let monitor =
    Check_run.default_spec ~skew_bound:10. spec Algorithm.Gradient_sync
  in
  let checked = Check_run.run ~monitor (config k) in
  (match checked.Check_run.violation with
  | None -> ()
  | Some v -> Alcotest.failf "clean run violated: %s" (Monitor.violation_to_string v));
  Alcotest.(check bool) "events were checked" true
    (checked.Check_run.events_checked > 0);
  Alcotest.(check bool) "summary identical" true
    (bare.Runner.summary = checked.Check_run.result.Runner.summary)

(* Abort mode must find the *same* first violation as record mode (the
   run is deterministic, the monitor sees the same event stream) while
   processing strictly fewer events afterwards. *)
let test_abort_stops_early () =
  let k = key ~fault_plan:(plan "jump@30:node=1:delta=-4") ~horizon:200. () in
  let record = Check_run.run (config k) in
  let monitor =
    Check_run.default_spec ~mode:`Abort spec Algorithm.Gradient_sync
  in
  let abort = Check_run.run ~monitor (config k) in
  Alcotest.(check bool) "same first violation" true
    (record.Check_run.violation = abort.Check_run.violation);
  (* The monitor stops *checking* at the first violation in both modes;
     abort additionally stops the *engine*, so the run itself dispatches
     fewer events. *)
  Alcotest.(check bool) "abort dispatched fewer events" true
    (abort.Check_run.result.Runner.dispatches
    < record.Check_run.result.Runner.dispatches)

let test_skew_monitor_fires () =
  let monitor =
    Check_run.default_spec ~skew_bound:1e-9 spec Algorithm.Gradient_sync
  in
  let v = violation_of (Check_run.run ~monitor (config (key ()))) in
  Alcotest.check kind "kind" Monitor.Skew v.Monitor.kind;
  (match v.Monitor.peer with
  | Some p -> Alcotest.(check bool) "pair ordered" true (v.Monitor.node < p)
  | None -> Alcotest.fail "skew violation must name a pair")

(* [config_of_key] must be a true inverse of [store_key] over the
   describable subset: rebuilding the config from the key reproduces the
   original run bit-for-bit. *)
let test_config_of_key_roundtrip () =
  let graph = Topology.build_for_seed (Topology.Ring 8) ~seed:42 in
  let direct =
    Runner.config ~spec ~algo:Algorithm.Gradient_sync ~horizon:100. ~seed:42
      graph
  in
  let rebuilt = config (key ()) in
  Alcotest.(check bool) "same summary" true
    ((Runner.run direct).Runner.summary = (Runner.run rebuilt).Runner.summary)

(* A key whose plan names a node or edge its graph lacks names no run. *)
let test_config_of_key_rejects_bad_plan () =
  match Runner.config_of_key (key ~fault_plan:(plan "crash@5:node=9") ()) with
  | Ok _ -> Alcotest.fail "accepted a plan for a node ring:8 lacks"
  | Error msg ->
      Alcotest.(check string) "message"
        "fault plan on ring:8: crash: node 9 out of range [0, 8)" msg

(* The execution arguments reach the config and change no result. *)
let test_config_of_key_execution_args () =
  let k = key ~horizon:40. () in
  let cfg =
    match
      Runner.config_of_key
        ~obs:{ Gcs_obs.Capture.none with Gcs_obs.Capture.events = true }
        ~scheduler:Gcs_util.Scheduler.Calendar ~regions:2 k
    with
    | Ok c -> c
    | Error e -> Alcotest.failf "config_of_key: %s" e
  in
  Alcotest.(check int) "regions" 2 cfg.Runner.regions;
  Alcotest.(check bool) "scheduler" true
    (cfg.Runner.scheduler = Gcs_util.Scheduler.Calendar);
  let r = Runner.run cfg and plain = Runner.run (config k) in
  Alcotest.(check bool) "events captured" true
    (r.Runner.obs.Gcs_obs.Capture.event_log <> None);
  Alcotest.(check bool) "same summary" true
    (r.Runner.summary = plain.Runner.summary);
  Alcotest.(check int) "same events" plain.Runner.events r.Runner.events

(* A store key must name exactly one run. The direct run is built the way
   [gcs-cli run] builds it; the other is rebuilt from the run's key, as
   [check run], [check replay] and the shrinker do. *)
let run_observed ~log (cfg : Runner.config) =
  let obs = { Gcs_obs.Capture.none with Gcs_obs.Capture.events = log } in
  let r = Runner.run { cfg with Runner.obs } in
  let log =
    Option.fold ~none:"" ~some:Gcs_obs.Event_log.to_string
      r.Runner.obs.Gcs_obs.Capture.event_log
  in
  (r.Runner.summary, r.Runner.events, log)

let key_rebuilds_direct_run ?(log = true) ?churn ?fault_plan ~topology ~algo
    ~horizon ~seed () =
  let graph = Topology.build_for_seed topology ~seed in
  let compiled =
    Option.bind churn (fun c ->
        Gcs_sim.Churn_plan.compile c ~graph ~seed ~horizon)
  in
  let fault_plan =
    match (fault_plan, compiled) with
    | p, None | None, p -> p
    | Some a, Some b -> Some (Fault_plan.compose a b)
  in
  let direct =
    Runner.config ~spec ~algo ~horizon ~seed ?fault_plan graph
  in
  let rebuilt =
    config
      (Runner.store_key ?fault_plan ~spec ~topology ~algo ~horizon ~seed ())
  in
  let s1, e1, l1 = run_observed ~log direct in
  let s2, e2, l2 = run_observed ~log rebuilt in
  (compare s1 s2 = 0, e1, e2, String.equal l1 l2)

(* The instance that exposed the rounded keys: its flap times carry more
   than six significant digits, and the rounded plan dispatched one event
   more. *)
let test_key_run_seed_777 () =
  let churn =
    match Gcs_sim.Churn_plan.of_string "flap@20..60:up=15:down=3:all" with
    | Ok c -> c
    | Error e -> Alcotest.fail e
  in
  let same_summary, direct, rebuilt, _ =
    key_rebuilds_direct_run ~log:false ~churn
      ~topology:(Topology.Torus (20, 20)) ~algo:Algorithm.Dynamic_gradient_sync
      ~horizon:60. ~seed:777 ()
  in
  Alcotest.(check int) "events" direct rebuilt;
  Alcotest.(check bool) "summary" true same_summary

let prop_key_rebuilds_direct_run =
  let open QCheck.Gen in
  let horizon = 40. in
  let time = float_range 1. 30. and span = float_range 0.5 9. in
  let maybe g = oneof [ return []; g ] in
  let window f = map2 (fun from_ d -> f ~from_ ~until:(from_ +. d)) time span in
  let gen =
    let* topology =
      oneof
        [
          map (fun n -> Topology.Ring n) (int_range 4 9);
          map2
            (fun r c -> Topology.Grid (r, c))
            (int_range 2 3) (int_range 2 4);
          map2
            (fun n p -> Topology.Random_gnp (n, p))
            (int_range 5 9) (float_range 0.4 0.9);
          map2
            (fun n r -> Topology.Random_geometric (n, r))
            (int_range 5 9) (float_range 0.6 0.9);
        ]
    in
    let* algo =
      oneofl
        [
          Algorithm.Gradient_sync;
          Algorithm.Dynamic_gradient_sync;
          Algorithm.Ft_gradient_sync 1;
          Algorithm.Max_slew_sync;
        ]
    in
    let* seed = int_range 0 100_000 in
    let* partition =
      maybe
        (map2
           (fun at d ->
             Fault_plan.
               [
                 Link_partition { at; edges = Cut [ 2 ] };
                 Link_heal { at = at +. d; edges = Cut [ 2 ] };
               ])
           time span)
    in
    let* crash =
      maybe
        (map2
           (fun at d ->
             Fault_plan.
               [
                 Node_crash { at; node = 1 };
                 Node_recover { at = at +. d; node = 1; wipe = false };
               ])
           time span)
    in
    let* tamper =
      maybe
        (map2
           (fun dup (reorder, extra) -> [ dup; reorder extra ])
           (window (fun ~from_ ~until ->
                Fault_plan.Msg_duplicate
                  { from_; until; edges = Fault_plan.All_edges; prob = 0.3 }))
           (pair
              (window (fun ~from_ ~until extra ->
                   Fault_plan.Msg_reorder
                     {
                       from_;
                       until;
                       edges = Fault_plan.All_edges;
                       prob = 0.2;
                       extra;
                     }))
              (float_range 0.1 2.)))
    in
    let* jump =
      maybe
        (map2
           (fun at delta -> [ Fault_plan.Clock_jump { at; node = 3; delta } ])
           time (float_range (-3.) 3.))
    in
    let* byzantine =
      maybe
        (map2
           (fun lie strategy -> [ lie strategy ])
           (window (fun ~from_ ~until strategy ->
                Fault_plan.Byzantine { from_; until; node = 0; strategy }))
           (oneof
              [
                map (fun x -> Fault_plan.Lie_constant x) (float_range (-5.) 5.);
                map (fun x -> Fault_plan.Lie_random x) (float_range 0. 5.);
                map (fun x -> Fault_plan.Lie_equivocate x) (float_range 0. 5.);
              ]))
    in
    let+ churn =
      opt
        (map3
           (fun from_ up_mean down_mean ->
             Gcs_sim.Churn_plan.of_processes
               [
                 Gcs_sim.Churn_plan.Flap
                   {
                     from_;
                     until = horizon;
                     up_mean;
                     down_mean;
                     edges = Fault_plan.All_edges;
                   };
               ])
           time (float_range 2. 15.) (float_range 0.5 4.))
    in
    let events = List.concat [ partition; crash; tamper; jump; byzantine ] in
    let fault_plan =
      if events = [] then None else Some (Fault_plan.of_events events)
    in
    (topology, algo, seed, fault_plan, churn)
  in
  let print (topology, algo, seed, fault_plan, churn) =
    Printf.sprintf "%s %s seed=%d plan=%s churn=%s"
      (Topology.spec_name topology) (Algorithm.kind_name algo) seed
      (Option.fold ~none:"-" ~some:Fault_plan.to_string fault_plan)
      (Option.fold ~none:"-" ~some:Gcs_sim.Churn_plan.to_string churn)
  in
  QCheck.Test.make ~count:40
    ~name:"run rebuilt from its store key = direct run (summary, events, log)"
    (QCheck.make ~print gen)
    (fun (topology, algo, seed, fault_plan, churn) ->
      let graph = Topology.build_for_seed topology ~seed in
      QCheck.assume
        (match fault_plan with
        | None -> true
        | Some p -> Result.is_ok (Fault_plan.validate p graph));
      let same_summary, direct, rebuilt, same_log =
        key_rebuilds_direct_run ?churn ?fault_plan ~topology ~algo ~horizon
          ~seed ()
      in
      same_summary && direct = rebuilt && same_log)

(* The ISSUE's acceptance bar: on the seeded violating configuration the
   shrinker must cut the size measure by at least half. *)
let test_shrink_halves_seeded_config () =
  let fault_plan =
    plan
      "partition@20:cut=5;heal@40:cut=5;dup@10..60:all:p=0.3;jump@50:node=3:delta=-5"
  in
  let k = key ~topology:(Topology.Ring 32) ~horizon:200. ~fault_plan () in
  let monitor = Check_run.default_spec spec Algorithm.Gradient_sync in
  let c0 = { Shrink.key = k; segment_len = 0.; moves = [] } in
  match Shrink.shrink ~monitor c0 with
  | None -> Alcotest.fail "seeded config did not violate"
  | Some o ->
      Alcotest.(check bool) "reduced by >= 50%" true
        (2 * o.Shrink.final_size <= o.Shrink.initial_size);
      Alcotest.check kind "violation kind preserved" Monitor.Monotonic
        o.Shrink.violation.Monitor.kind;
      (* The minimized candidate is replayable on its own: re-running it
         cold reproduces the recorded violation exactly. *)
      let fresh =
        Check_run.run
          ~monitor:{ monitor with Monitor.mode = `Record }
          ~moves:o.Shrink.minimized.Shrink.moves
          ~segment_len:o.Shrink.minimized.Shrink.segment_len
          (config o.Shrink.minimized.Shrink.key)
      in
      Alcotest.(check bool) "minimized violation reproduces" true
        (fresh.Check_run.violation = Some o.Shrink.violation)

(* Shrinker soundness, property-tested over seeded violating configs: the
   minimized candidate still violates with the same kind, is strictly no
   larger, and the greedy loop terminates within its budget. *)
let prop_shrink_sound =
  QCheck.Test.make ~name:"shrink: still violates, no larger, terminates"
    ~count:6 QCheck.small_nat (fun i ->
      let n = 6 + (i mod 5) in
      let node = i mod n in
      let at = 20. +. float_of_int (i mod 3) *. 10. in
      let horizon = 60. +. float_of_int (i mod 3) *. 20. in
      let fault_plan =
        plan
          (Printf.sprintf "dup@5..30:all:p=0.4;jump@%g:node=%d:delta=-%d" at
             node
             (2 + (i mod 3)))
      in
      let k =
        key ~topology:(Topology.Ring n) ~horizon ~seed:(100 + i) ~fault_plan ()
      in
      let monitor = Check_run.default_spec spec Algorithm.Gradient_sync in
      let c0 = { Shrink.key = k; segment_len = 0.; moves = [] } in
      match Shrink.shrink ~max_evaluations:120 ~monitor c0 with
      | None -> QCheck.Test.fail_report "seeded config did not violate"
      | Some o ->
          if o.Shrink.final_size > o.Shrink.initial_size then
            QCheck.Test.fail_report "minimized candidate grew";
          if o.Shrink.evaluations > 120 then
            QCheck.Test.fail_report "budget exceeded";
          let fresh =
            Check_run.run ~monitor (config o.Shrink.minimized.Shrink.key)
          in
          (match fresh.Check_run.violation with
          | Some v when v.Monitor.kind = o.Shrink.violation.Monitor.kind -> ()
          | Some _ -> QCheck.Test.fail_report "violation kind changed"
          | None -> QCheck.Test.fail_report "minimized candidate ran clean");
          true)

let test_moves_codec () =
  let all = Search.all_moves in
  let s = Repro.moves_to_string all in
  (match Repro.moves_of_string s with
  | Ok ms -> Alcotest.(check bool) "roundtrip" true (ms = all)
  | Error e -> Alcotest.failf "decode: %s" e);
  (match Repro.moves_of_string "" with
  | Ok [] -> ()
  | Ok _ | Error _ -> Alcotest.fail "empty string is the empty sequence");
  match Repro.moves_of_string "XQ" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad move must not parse"

let test_repro_roundtrip () =
  let k = key ~fault_plan:(plan "jump@50:node=3:delta=-5") () in
  let v = violation_of (Check_run.run (config k)) in
  let t =
    {
      Repro.monitor =
        Check_run.default_spec ~skew_bound:3.25 ~after:25.
          spec Algorithm.Gradient_sync;
      expected = v;
      segment_len = 20.;
      moves =
        [
          { Search.fast_side = `Left; bias = `Forward };
          { Search.fast_side = `None; bias = `Neutral };
        ];
      key = k;
    }
  in
  match Repro.of_string (Repro.to_string t) with
  | Error e -> Alcotest.failf "of_string: %s" e
  | Ok t' ->
      Alcotest.(check bool) "roundtrip" true (t = t');
      Alcotest.(check string) "re-encoding is canonical" (Repro.to_string t)
        (Repro.to_string t')

let test_replay_reproduces () =
  let k = key ~fault_plan:(plan "jump@50:node=3:delta=-5") () in
  let monitor = Check_run.default_spec spec Algorithm.Gradient_sync in
  let v = violation_of (Check_run.run ~monitor (config k)) in
  let t =
    { Repro.monitor; expected = v; segment_len = 0.; moves = []; key = k }
  in
  (match Repro.replay t with
  | Ok Repro.Reproduced -> ()
  | Ok (Repro.Diverged v') ->
      Alcotest.failf "diverged: %s" (Monitor.violation_to_string v')
  | Ok Repro.Missing -> Alcotest.fail "replay ran clean"
  | Error e -> Alcotest.failf "replay: %s" e);
  (* A tampered expectation must be flagged, not blindly accepted. *)
  let tampered = { t with Repro.expected = { v with Monitor.node = 99 } } in
  match Repro.replay tampered with
  | Ok (Repro.Diverged _) -> ()
  | Ok Repro.Reproduced -> Alcotest.fail "tampered repro reproduced"
  | Ok Repro.Missing -> Alcotest.fail "tampered replay ran clean"
  | Error e -> Alcotest.failf "replay: %s" e

(* Shared Byzantine scenario: plain gradient on ring:16 under the battery's
   own adversarial plan (an equivocating liar), monitored against the
   weakened containment bound. Computed once, forced by several tests. *)
let containment_scenario =
  lazy
    (let aspec = Check_run.attack_spec () in
     let horizon = 300. in
     let fault_plan =
       Check_run.byz_plan ~seed:7920 ~horizon ~nodes:16 ~f:1
         ~kappa:aspec.Spec.kappa
     in
     let byz = Fault_plan.byzantine_nodes fault_plan in
     let k =
       Runner.store_key ~fault_plan ~spec:aspec ~topology:(Topology.Ring 16)
         ~algo:Algorithm.Gradient_sync ~horizon ~seed:7920 ()
     in
     let monitor =
       Check_run.default_spec ~byzantine:byz
         ~containment_bound:(Check_run.containment_bound aspec ~f:1)
         aspec Algorithm.Gradient_sync
     in
     (k, monitor, byz, violation_of (Check_run.run ~monitor (config k))))

(* Plain gradient chases the equivocating liar across the containment
   bound, and the violation is between two *correct* nodes — the monitor
   never scores a pair against the liar's own clock. *)
let test_containment_monitor_fires () =
  let _, _, byz, v = Lazy.force containment_scenario in
  Alcotest.check kind "kind" Monitor.Containment v.Monitor.kind;
  Alcotest.(check bool) "plan has a liar" true (byz <> []);
  let peer =
    match v.Monitor.peer with
    | Some p -> p
    | None -> Alcotest.fail "containment violation must name a pair"
  in
  List.iter
    (fun liar ->
      Alcotest.(check bool) "violating pair is correct-correct" true
        (v.Monitor.node <> liar && peer <> liar))
    byz

(* The Byzantine monitor fields survive the .repro text codec, and the
   re-encoding is canonical (byte-stable artifacts). *)
let test_repro_roundtrip_byzantine () =
  let k, monitor, _, v = Lazy.force containment_scenario in
  let t =
    { Repro.monitor; expected = v; segment_len = 0.; moves = []; key = k }
  in
  match Repro.of_string (Repro.to_string t) with
  | Error e -> Alcotest.failf "of_string: %s" e
  | Ok t' ->
      Alcotest.(check bool) "roundtrip" true (t = t');
      Alcotest.(check string) "re-encoding is canonical" (Repro.to_string t)
        (Repro.to_string t');
      Alcotest.(check (list int)) "byzantine preserved"
        t.Repro.monitor.Monitor.byzantine t'.Repro.monitor.Monitor.byzantine

(* The violation replays through the ordinary pipeline: key + monitor
   rebuild the run (liar included) and reproduce the exact violation. *)
let test_containment_violation_replays () =
  let k, monitor, _, v = Lazy.force containment_scenario in
  let t =
    { Repro.monitor; expected = v; segment_len = 0.; moves = []; key = k }
  in
  match Repro.replay t with
  | Ok Repro.Reproduced -> ()
  | Ok (Repro.Diverged v') ->
      Alcotest.failf "diverged: %s" (Monitor.violation_to_string v')
  | Ok Repro.Missing -> Alcotest.fail "replay ran clean"
  | Error e -> Alcotest.failf "replay: %s" e

(* The containment acceptance bar: the ft gradient survives the full
   adversarial battery — line, ring, and grid, under f = 1 and f = 2 liars
   with 20x-kappa lies — with zero violations. *)
let test_ft_containment_battery_clean () =
  List.iter
    (fun f ->
      let cells =
        Check_run.containment_battery ~jobs:2 ~f
          ~topologies:[ Topology.Line 8; Topology.Ring 16 ]
          ~seeds:2 ~horizon:300. ()
      in
      Alcotest.(check int) "grid size" 4 (List.length cells);
      List.iter
        (fun c ->
          Alcotest.(check bool) "events were checked" true
            (c.Check_run.events_checked > 0))
        cells;
      match Check_run.violations cells with
      | [] -> ()
      | c :: _ ->
          let v = Option.get c.Check_run.violation in
          Alcotest.failf "f=%d: %s seed %d: %s" f
            (Topology.spec_name c.Check_run.key.Key.topology)
            c.Check_run.key.Key.seed
            (Monitor.violation_to_string v))
    [ 1; 2 ]

(* The deliberate-failure half of the same battery: plain gradient run
   through containment_battery violates, and the failing cell's key +
   monitor round-trip into a reproducing artifact. *)
let test_plain_gradient_battery_violates () =
  let cells =
    Check_run.containment_battery ~algos:[ Algorithm.Gradient_sync ] ~f:1
      ~base_seed:7920 ~topologies:[ Topology.Ring 16 ] ~seeds:1 ~horizon:300.
      ()
  in
  match Check_run.violations cells with
  | [] -> Alcotest.fail "plain gradient survived the adversarial liar"
  | c :: _ ->
      let v = Option.get c.Check_run.violation in
      Alcotest.check kind "kind" Monitor.Containment v.Monitor.kind;
      let t =
        {
          Repro.monitor = c.Check_run.monitor;
          expected = v;
          segment_len = 0.;
          moves = [];
          key = c.Check_run.key;
        }
      in
      (match Repro.replay t with
      | Ok Repro.Reproduced -> ()
      | _ -> Alcotest.fail "violating battery cell did not replay")

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* The committed minimized fixtures: each must parse, re-encode to the
   exact committed bytes, replay to [Reproduced], and render the exact
   committed report. This is the CI contract for repro artifacts. *)
let check_fixture name =
  let raw = read_file (Filename.concat "fixtures" (name ^ ".repro")) in
  match Repro.of_string raw with
  | Error e -> Alcotest.failf "%s: %s" name e
  | Ok t ->
      Alcotest.(check string) "artifact bytes are canonical" raw
        (Repro.to_string t);
      let outcome = Repro.replay t in
      (match outcome with
      | Ok Repro.Reproduced -> ()
      | Ok (Repro.Diverged v) ->
          Alcotest.failf "%s diverged: %s" name (Monitor.violation_to_string v)
      | Ok Repro.Missing -> Alcotest.failf "%s ran clean" name
      | Error e -> Alcotest.failf "%s: %s" name e);
      Alcotest.(check string) "report bytes"
        (read_file (Filename.concat "fixtures" (name ^ ".report")))
        (Repro.report t outcome)

let test_golden_monotonic () = check_fixture "monotonic-jump"
let test_golden_rate () = check_fixture "rate-fault"
let test_golden_byzantine () = check_fixture "byzantine-containment"
let test_golden_dynamic_edge () = check_fixture "dynamic-edge"

(* The conformance battery as a tier-1 gate: every registered algorithm,
   over a randomized topology mix, deterministic seeds, and benign fault
   plans on odd seed indices, must pass its own expected envelope. *)
let test_battery_conforms () =
  let cells =
    Check_run.battery ~jobs:2
      ~topologies:
        [ Topology.Ring 6; Topology.Line 5; Topology.Random_gnp (8, 0.5) ]
      ~seeds:2 ~horizon:60. ()
  in
  Alcotest.(check int) "grid size"
    (3 * List.length Algorithm.all_kinds * 2)
    (List.length cells);
  match Check_run.violations cells with
  | [] -> ()
  | c :: _ ->
      let v = Option.get c.Check_run.violation in
      Alcotest.failf "%s %s seed %d: %s"
        (Topology.spec_name c.Check_run.key.Key.topology)
        c.Check_run.key.Key.algo c.Check_run.key.Key.seed
        (Monitor.violation_to_string v)

(* Battery results are a pure function of the grid — sharding across
   domains must not change a single cell. *)
let test_battery_jobs_invariant () =
  let run jobs =
    Check_run.battery ~jobs ~topologies:[ Topology.Ring 6 ] ~seeds:2
      ~horizon:40. ()
  in
  Alcotest.(check bool) "jobs=1 = jobs=4" true (run 1 = run 4)

(* Battery cells violate like any other config: seeding a clock-rate
   fault through a cell's key yields a Rate violation that the cell's own
   monitor catches, and the key round-trips into a working repro. *)
let test_battery_cell_violation_is_reproable () =
  let fault_plan = plan "rate@20:node=1:rate=2.0" in
  let k = key ~topology:(Topology.Line 5) ~horizon:60. ~fault_plan () in
  let monitor = Check_run.default_spec spec (algo_of_key k) in
  let v = violation_of (Check_run.run ~monitor (config k)) in
  let t =
    { Repro.monitor; expected = v; segment_len = 0.; moves = []; key = k }
  in
  match Repro.replay t with
  | Ok Repro.Reproduced -> ()
  | _ -> Alcotest.fail "battery-style cell did not replay"

let suite =
  [
    Alcotest.test_case "monitor detects negative jump" `Quick
      test_monitor_detects_jump;
    Alcotest.test_case "monitor detects rate fault" `Quick
      test_monitor_detects_rate_fault;
    Alcotest.test_case "clean run: no violation, identical summary" `Quick
      test_clean_run_identical_summary;
    Alcotest.test_case "abort mode stops early, same violation" `Quick
      test_abort_stops_early;
    Alcotest.test_case "skew monitor reports a pair" `Quick
      test_skew_monitor_fires;
    Alcotest.test_case "config_of_key inverts store_key" `Quick
      test_config_of_key_roundtrip;
    Alcotest.test_case "config_of_key rejects a bad plan" `Quick
      test_config_of_key_rejects_bad_plan;
    Alcotest.test_case "config_of_key execution arguments" `Quick
      test_config_of_key_execution_args;
    Alcotest.test_case "seed-777 flap run = its key's run" `Quick
      test_key_run_seed_777;
    QCheck_alcotest.to_alcotest prop_key_rebuilds_direct_run;
    Alcotest.test_case "shrinker halves the seeded config" `Quick
      test_shrink_halves_seeded_config;
    QCheck_alcotest.to_alcotest prop_shrink_sound;
    Alcotest.test_case "move codec roundtrip" `Quick test_moves_codec;
    Alcotest.test_case "repro encoding roundtrip" `Quick test_repro_roundtrip;
    Alcotest.test_case "replay reproduces, tampering diverges" `Quick
      test_replay_reproduces;
    Alcotest.test_case "golden fixture: monotonic jump" `Quick
      test_golden_monotonic;
    Alcotest.test_case "golden fixture: rate fault" `Quick test_golden_rate;
    Alcotest.test_case "golden fixture: byzantine containment" `Quick
      test_golden_byzantine;
    Alcotest.test_case "golden fixture: dynamic edge age" `Quick
      test_golden_dynamic_edge;
    Alcotest.test_case "conformance battery passes" `Quick
      test_battery_conforms;
    Alcotest.test_case "battery is jobs-invariant" `Quick
      test_battery_jobs_invariant;
    Alcotest.test_case "violating cell round-trips to a repro" `Quick
      test_battery_cell_violation_is_reproable;
    Alcotest.test_case "containment monitor fires on plain gradient" `Quick
      test_containment_monitor_fires;
    Alcotest.test_case "repro roundtrip with byzantine fields" `Quick
      test_repro_roundtrip_byzantine;
    Alcotest.test_case "containment violation replays" `Quick
      test_containment_violation_replays;
    Alcotest.test_case "ft containment battery clean (f=1,2)" `Quick
      test_ft_containment_battery_clean;
    Alcotest.test_case "plain gradient violates containment" `Quick
      test_plain_gradient_battery_violates;
  ]
