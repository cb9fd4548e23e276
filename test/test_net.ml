(* gcs.net: the live-transport subsystem.

   The load-bearing property is shim identity: rerouting an algorithm's
   callbacks through a [Transport.Driver] over the simulator-backed shim
   must leave every run byte-identical to the direct run — same flattened
   outcome, same samples, same event-log bytes — over random topology x
   algorithm x seed x fault-plan configurations. That identity is what
   lets a recorded UDP execution of the same driver be read as an
   execution of the stock algorithm. The rest pins the wire codec
   (round-trip + malformed-frame rejection), the per-node fault-plan
   compiler, and offline sample checking; the forked live loopback
   end-to-end test is in test/live/. *)

module Graph = Gcs_graph.Graph
module Topology = Gcs_graph.Topology
module Spec = Gcs_core.Spec
module Algorithm = Gcs_core.Algorithm
module Message = Gcs_core.Message
module Metrics = Gcs_core.Metrics
module Runner = Gcs_core.Runner
module Engine = Gcs_sim.Engine
module Fault_plan = Gcs_sim.Fault_plan
module Capture = Gcs_obs.Capture
module Event_log = Gcs_obs.Event_log
module Codec = Gcs_net.Codec
module Inject = Gcs_net.Inject
module Sim_shim = Gcs_net.Sim_shim
module Monitor = Gcs_check.Monitor
module Check_run = Gcs_check.Check_run

(* ------------------------------------------------------------------ *)
(* Codec *)

let all_messages =
  [
    Message.Beacon { value = 12.25 };
    Message.Probe { seq = 7; h_send = 3.5 };
    Message.Probe_reply { seq = 7; h_send = 3.5; remote_value = -1.75 };
    Message.Flood { round = 3; payload = 0.125 };
    Message.Report { round = 3; lo = -2.5; hi = 9.0 };
    Message.Reset { round = 4; payload = 6.5 };
  ]

let test_codec_roundtrip () =
  List.iteri
    (fun i msg ->
      let frame = Codec.encode ~src:(i * 7) ~seq:(i * 1000 + 3) msg in
      match Codec.decode frame ~len:(Bytes.length frame) with
      | Ok (src, seq, msg') ->
          Alcotest.(check int) "src" (i * 7) src;
          Alcotest.(check int) "seq" ((i * 1000) + 3) seq;
          Alcotest.(check bool) "message" true (msg = msg')
      | Error e -> Alcotest.failf "decode failed: %s" (Codec.error_to_string e))
    all_messages

let expect_error name expected buf len =
  match Codec.decode buf ~len with
  | Ok _ -> Alcotest.failf "%s: decode unexpectedly succeeded" name
  | Error e ->
      Alcotest.(check string)
        name
        (Codec.error_to_string expected)
        (Codec.error_to_string e)

let test_codec_rejection () =
  let frame = Codec.encode ~src:2 ~seq:5 (Message.Beacon { value = 1.5 }) in
  (* Truncated: cut anywhere inside the header. *)
  expect_error "truncated" Codec.Truncated frame 7;
  (* Bad magic. *)
  let bad = Bytes.copy frame in
  Bytes.set bad 2 'X';
  expect_error "bad magic" Codec.Bad_magic bad (Bytes.length bad);
  (* Bad version. *)
  let bad = Bytes.copy frame in
  Bytes.set bad 4 (Char.chr (Codec.version + 1));
  expect_error "bad version" Codec.Bad_version bad (Bytes.length bad);
  (* Bad tag. *)
  let bad = Bytes.copy frame in
  Bytes.set bad 11 (Char.chr 99);
  expect_error "bad tag" Codec.Bad_tag bad (Bytes.length bad);
  (* Length prefix inconsistent with the received byte count. *)
  let padded = Bytes.extend frame 0 4 in
  expect_error "length mismatch" Codec.Length_mismatch padded
    (Bytes.length padded)

(* ------------------------------------------------------------------ *)
(* Sim shim byte-identity *)

let shim_topologies =
  [|
    (fun n -> Topology.Line (max 2 n));
    (fun n -> Topology.Ring (max 3 n));
    (fun n -> Topology.Complete (max 2 (min 5 n)));
    (fun _ -> Topology.Grid (2, 3));
  |]

let shim_algos =
  [|
    Algorithm.Gradient_sync;
    Algorithm.Tree_sync;
    Algorithm.Max_sync;
    Algorithm.Ft_gradient_sync 1;
  |]

let shim_plans =
  [|
    None;
    Some "partition@10:cut=0; heal@25:cut=0";
    Some "crash@12:node=1; recover@24:node=1:wipe";
    Some "dup@5..30:p=0.4; corrupt@10..25:p=0.3:mag=0.5";
  |]

let shim_cfg ?obs case =
  let topo = shim_topologies.(case mod 4) (3 + (case mod 5)) in
  let algo = shim_algos.(case / 4 mod 4) in
  let seed = 100 + (case * 37) in
  let graph = Topology.build_for_seed topo ~seed in
  let fault_plan =
    match shim_plans.(case / 16 mod 4) with
    | None -> None
    | Some s -> (
        match Fault_plan.of_string s with
        | Ok p -> Some p
        | Error msg -> Alcotest.failf "plan did not parse: %s" msg)
  in
  Runner.config ~spec:(Spec.make ~kappa:0.5 ()) ~algo ~horizon:40. ~seed
    ?fault_plan ?obs graph

let test_shim_identity_prop =
  QCheck.Test.make ~name:"sim-shim run is byte-identical to direct run"
    ~count:64
    QCheck.(int_bound 1000)
    (fun case ->
      let cfg = shim_cfg case in
      let direct = Runner.run cfg in
      let shimmed = Sim_shim.run cfg in
      Runner.outcome direct = Runner.outcome shimmed
      && direct.Runner.samples = shimmed.Runner.samples
      && direct.Runner.events = shimmed.Runner.events
      && direct.Runner.dispatches = shimmed.Runner.dispatches)

let test_shim_event_log_bytes () =
  let obs = { Capture.none with Capture.events = true } in
  List.iter
    (fun case ->
      let log_string (r : Runner.result) =
        match r.Runner.obs.Capture.event_log with
        | Some log -> Event_log.to_string log
        | None -> Alcotest.fail "event log missing"
      in
      let direct = Runner.run (shim_cfg ~obs case) in
      let shimmed = Sim_shim.run (shim_cfg ~obs case) in
      let bytes = log_string direct in
      Alcotest.(check bool)
        (Printf.sprintf "case %d: log nonempty" case)
        true
        (String.length bytes > 0);
      Alcotest.(check bool)
        (Printf.sprintf "case %d: event log byte-identical" case)
        true
        (String.equal bytes (log_string shimmed)))
    [ 0; 5; 21; 38; 50 ]

(* ------------------------------------------------------------------ *)
(* Inject *)

let plan_of_string s =
  match Fault_plan.of_string s with
  | Ok p -> p
  | Error msg -> Alcotest.failf "plan did not parse: %s (%s)" s msg

let test_inject_partition () =
  let graph = Topology.ring 4 in
  let plan = plan_of_string "partition@10:edges=0-1; heal@20:edges=0-1" in
  let inj = Inject.create ~graph ~node:0 ~seed:7 plan in
  let edge = Graph.edge_at_port graph 0 (Graph.port_of_neighbor graph 0 1) in
  Alcotest.(check bool) "up before" true (Inject.edge_up inj ~edge ~now:5.);
  Alcotest.(check bool) "down inside" false (Inject.edge_up inj ~edge ~now:15.);
  Alcotest.(check bool) "up after" true (Inject.edge_up inj ~edge ~now:25.);
  let v = Inject.outgoing inj ~now:15. ~edge ~dst:1 (Message.Beacon { value = 1. }) in
  Alcotest.(check bool) "dropped" true v.Inject.fault_drop;
  Alcotest.(check int) "no sends" 0 (List.length v.Inject.sends);
  (* Controls: node 0 is the min endpoint of edge 0-1, so it owns the
     edge-status observations. *)
  let due = Inject.due inj ~now:12. in
  Alcotest.(check bool) "edge_down due" true
    (List.exists (function Inject.Edge_down _ -> true | _ -> false) due)

let test_inject_dup_corrupt () =
  let graph = Topology.ring 4 in
  let plan = plan_of_string "dup@0..100:p=1:all; corrupt@0..100:p=1:mag=0.5:all" in
  let inj = Inject.create ~graph ~node:0 ~seed:7 plan in
  let v =
    Inject.outgoing inj ~now:10. ~edge:0 ~dst:1 (Message.Beacon { value = 4. })
  in
  Alcotest.(check bool) "not dropped" false v.Inject.fault_drop;
  Alcotest.(check bool) "duplicated" true v.Inject.duplicated;
  Alcotest.(check bool) "corrupted" true v.Inject.corrupted;
  Alcotest.(check int) "two copies" 2 (List.length v.Inject.sends);
  List.iter
    (fun (_, msg) ->
      match msg with
      | Message.Beacon { value } ->
          Alcotest.(check bool) "value perturbed" true (value <> 4.);
          Alcotest.(check bool) "within magnitude" true
            (Float.abs (value -. 4.) <= 0.5 +. 1e-9)
      | _ -> Alcotest.fail "variant changed")
    v.Inject.sends

let test_inject_byzantine_equivocate () =
  let graph = Topology.ring 4 in
  let plan = plan_of_string "byz@0..100:node=1:equiv=3" in
  let inj = Inject.create ~graph ~node:1 ~seed:7 plan in
  let edge_to w = Graph.edge_at_port graph 1 (Graph.port_of_neighbor graph 1 w) in
  let high =
    Inject.outgoing inj ~now:10. ~edge:(edge_to 2) ~dst:2
      (Message.Beacon { value = 1. })
  in
  let low =
    Inject.outgoing inj ~now:10. ~edge:(edge_to 0) ~dst:0
      (Message.Beacon { value = 1. })
  in
  let value v =
    match v.Inject.sends with
    | [ (_, Message.Beacon { value }) ] -> value
    | _ -> Alcotest.fail "expected one beacon"
  in
  Alcotest.(check bool) "lied" true (high.Inject.lied && low.Inject.lied);
  Alcotest.(check (float 1e-9)) "+mag to higher id" 4. (value high);
  Alcotest.(check (float 1e-9)) "-mag to lower id" (-2.) (value low)

(* ------------------------------------------------------------------ *)
(* Offline sample checking *)

let samples_of_rows rows =
  Array.of_list
    (List.map
       (fun (time, values) -> { Metrics.time; values = Array.of_list values })
       rows)

let test_check_samples_clean () =
  let graph = Topology.ring 3 in
  let spec =
    Check_run.default_spec (Spec.make ()) Algorithm.Gradient_sync
  in
  let samples =
    samples_of_rows
      [
        (0., [ 0.; 0.; 0. ]);
        (1., [ 1.; 1.002; 1.001 ]);
        (2., [ 2.; 2.004; 2.003 ]);
      ]
  in
  let violation, checked = Monitor.check_samples spec ~graph ~samples in
  Alcotest.(check bool) "no violation" true (violation = None);
  Alcotest.(check int) "checked 2 rows x 3 nodes" 6 checked

let test_check_samples_backwards () =
  let graph = Topology.ring 3 in
  let spec =
    Check_run.default_spec (Spec.make ()) Algorithm.Gradient_sync
  in
  let samples =
    samples_of_rows
      [ (0., [ 0.; 0.; 0. ]); (1., [ 1.; 1.; 1. ]); (2., [ 2.; 0.5; 2. ]) ]
  in
  match Monitor.check_samples spec ~graph ~samples with
  | Some v, _ ->
      Alcotest.(check string) "kind" "monotonic" (Monitor.kind_name v.Monitor.kind);
      Alcotest.(check int) "node" 1 v.Monitor.node
  | None, _ -> Alcotest.fail "backwards clock not caught"

(* The forked live-loopback end-to-end test lives in its own executable
   (test/live/): Unix.fork may not be called after any domain has been
   created, and this binary exercises the domain pool. *)

let suite =
  [
    Alcotest.test_case "codec round-trips every variant" `Quick
      test_codec_roundtrip;
    Alcotest.test_case "codec rejects malformed frames" `Quick
      test_codec_rejection;
    QCheck_alcotest.to_alcotest test_shim_identity_prop;
    Alcotest.test_case "sim-shim event log byte-identical" `Quick
      test_shim_event_log_bytes;
    Alcotest.test_case "inject: partition drops and toggles" `Quick
      test_inject_partition;
    Alcotest.test_case "inject: dup + corrupt windows" `Quick
      test_inject_dup_corrupt;
    Alcotest.test_case "inject: equivocation splits sides" `Quick
      test_inject_byzantine_equivocate;
    Alcotest.test_case "check_samples: clean trajectory conforms" `Quick
      test_check_samples_clean;
    Alcotest.test_case "check_samples: backwards clock caught" `Quick
      test_check_samples_backwards;
  ]
