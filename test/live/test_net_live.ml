(* End-to-end live execution: fork a real multi-process UDP fleet on
   loopback, collect it into a standard result, and require the recording
   to satisfy the same schema and finiteness contracts the CLI smoke
   enforces. This lives in its own executable because Unix.fork may not
   be called after any domain has been created, and the main test binary
   exercises the domain pool. *)

module Topology = Gcs_graph.Topology
module Algorithm = Gcs_core.Algorithm
module Metrics = Gcs_core.Metrics
module Runner = Gcs_core.Runner
module Capture = Gcs_obs.Capture
module Event_log = Gcs_obs.Event_log
module Live_run = Gcs_net.Live_run

(* The port base is derived from the pid so parallel test invocations do
   not collide. *)
let test_live_loopback () =
  let cfg =
    Live_run.config ~topology:(Topology.Ring 3) ~algo:Algorithm.Gradient_sync
      ~horizon:1.5 ~sample_period:0.3 ~seed:11
      ~base_port:(20000 + (Unix.getpid () mod 20000))
      ~startup:0.2 ()
  in
  let r = Live_run.run cfg in
  Alcotest.(check bool) "messages flowed" true (r.Runner.messages > 0);
  Alcotest.(check bool) "dispatches counted" true (r.Runner.dispatches > 0);
  Alcotest.(check bool)
    "finite local skew" true
    (Float.is_finite r.Runner.summary.Metrics.max_local);
  Alcotest.(check bool)
    "finite global skew" true
    (Float.is_finite r.Runner.summary.Metrics.max_global);
  let log =
    match r.Runner.obs.Capture.event_log with
    | Some log -> log
    | None -> Alcotest.fail "no merged event log"
  in
  Alcotest.(check bool) "events recorded" true (Event_log.recorded log > 0);
  (* Every merged line must round-trip the canonical schema — the same
     property `gcs-cli trace --check-schema` enforces. *)
  List.iter
    (fun line ->
      match Event_log.validate_line line with
      | Ok _ -> ()
      | Error msg -> Alcotest.failf "schema violation: %s" msg)
    (Event_log.to_lines log);
  (* The recorded directory round-trips. *)
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "gcs-test-rec-%d" (Unix.getpid ()))
  in
  Live_run.save cfg r ~dir;
  (match Live_run.load dir with
  | Error msg -> Alcotest.failf "load failed: %s" msg
  | Ok (info, r') ->
      Alcotest.(check int) "seed preserved" 11 info.Live_run.seed;
      Alcotest.(check int) "messages preserved" r.Runner.messages
        r'.Runner.messages;
      Alcotest.(check int) "events preserved" r.Runner.events r'.Runner.events;
      Alcotest.(check bool) "samples preserved" true
        (Array.length r'.Runner.samples = Array.length r.Runner.samples));
  Array.iter
    (fun name -> Sys.remove (Filename.concat dir name))
    (Sys.readdir dir);
  Unix.rmdir dir

(* Logs go under [_build/_tests] next to the binary, wherever it is run
   from. *)
let () =
  Alcotest.run "gcs-net-live"
    ~log_dir:
      (Filename.concat (Filename.dirname Sys.executable_name) "_build/_tests")
    [
      ( "live",
        [
          Alcotest.test_case "loopback ring end to end" `Quick
            test_live_loopback;
        ] );
    ]
