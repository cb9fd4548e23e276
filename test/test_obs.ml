(* Tests for the gcs.obs sinks: event log storage and schema, series
   recorder, profiler, capture plumbing through the runner, and the
   byte-identity of exports across --jobs. *)

module Engine = Gcs_sim.Engine
module Event_log = Gcs_obs.Event_log
module Series = Gcs_obs.Series
module Profiler = Gcs_obs.Profiler
module Capture = Gcs_obs.Capture
module Runner = Gcs_core.Runner
module Parallel_run = Gcs_core.Parallel_run
module Algorithm = Gcs_core.Algorithm
module Topology = Gcs_graph.Topology
module Fault_plan = Gcs_sim.Fault_plan
module Dm = Gcs_sim.Delay_model
module Hc = Gcs_clock.Hardware_clock
module Prng = Gcs_util.Prng

let all_kinds : Engine.observation list =
  [
    Engine.Obs_send { src = 0; dst = 1; edge = 2; delay = 0.125 };
    Engine.Obs_drop { src = 3; dst = 4; edge = 5 };
    Engine.Obs_deliver { dst = 6; port = 7 };
    Engine.Obs_timer { node = 8; tag = 9 };
    Engine.Obs_rate_change { node = 10; rate = 1.009999999999999 };
    Engine.Obs_node_down { node = 11 };
    Engine.Obs_node_up { node = 12; wipe = true };
    Engine.Obs_node_up { node = 13; wipe = false };
    Engine.Obs_edge_down { edge = 14 };
    Engine.Obs_edge_up { edge = 15 };
    Engine.Obs_fault_drop { src = 16; dst = 17; edge = 18 };
    Engine.Obs_duplicate { src = 19; dst = 20; edge = 21 };
    Engine.Obs_corrupt { src = 22; dst = 23; edge = 24 };
  ]

let record_all log =
  List.iteri
    (fun i obs -> Event_log.record log (float_of_int i *. 0.5) obs)
    all_kinds

(* Every kind must survive the packed column storage unchanged. *)
let test_storage_roundtrip () =
  let log = Event_log.create () in
  record_all log;
  let entries = Event_log.entries log in
  Alcotest.(check int) "count" (List.length all_kinds) (List.length entries);
  List.iteri
    (fun i e ->
      Alcotest.(check int) "seq" i e.Event_log.seq;
      Alcotest.(check (float 0.)) "time" (float_of_int i *. 0.5)
        e.Event_log.time;
      Alcotest.(check bool) "obs" true
        (e.Event_log.obs = List.nth all_kinds i))
    entries

(* Ids above the packed 19-bit field range take the escape path and must
   still round-trip exactly. *)
let test_storage_escape_path () =
  let big = (1 lsl 19) + 123 in
  let obs = Engine.Obs_send { src = big; dst = 1; edge = 0; delay = 2. } in
  let log = Event_log.create () in
  Event_log.record log 1. obs;
  Event_log.record log 2. (Engine.Obs_edge_up { edge = big });
  (match Event_log.entries log with
  | [ a; b ] ->
      Alcotest.(check bool) "big send" true (a.Event_log.obs = obs);
      Alcotest.(check bool) "big edge" true
        (b.Event_log.obs = Engine.Obs_edge_up { edge = big })
  | _ -> Alcotest.fail "expected two entries");
  (* The same ids must also survive a ring slot being overwritten. *)
  let ring = Event_log.create ~capacity:1 () in
  Event_log.record ring 1. obs;
  Event_log.record ring 2. (Engine.Obs_timer { node = 0; tag = 1 });
  match Event_log.entries ring with
  | [ e ] ->
      Alcotest.(check bool) "escape slot reclaimed" true
        (e.Event_log.obs = Engine.Obs_timer { node = 0; tag = 1 })
  | _ -> Alcotest.fail "expected one entry"

(* Unbounded storage is chunked; entries must be seamless across the
   chunk boundary. *)
let test_grow_across_chunks () =
  let log = Event_log.create () in
  let n = 20_000 in
  for i = 0 to n - 1 do
    Event_log.record log (float_of_int i)
      (Engine.Obs_deliver { dst = i land 0xFF; port = i land 7 })
  done;
  Alcotest.(check int) "recorded" n (Event_log.recorded log);
  Alcotest.(check int) "retained" n (Event_log.retained log);
  let ok = ref true in
  List.iteri
    (fun i e ->
      if
        e.Event_log.seq <> i
        || e.Event_log.time <> float_of_int i
        || e.Event_log.obs
           <> Engine.Obs_deliver { dst = i land 0xFF; port = i land 7 }
      then ok := false)
    (Event_log.entries log);
  Alcotest.(check bool) "all entries intact" true !ok

let deliver i = Engine.Obs_deliver { dst = i; port = 0 }

(* Wraparound exactly at capacity: full-but-nothing-evicted, then one
   more record evicts the oldest while seq keeps counting. *)
let test_ring_exact_capacity () =
  let log = Event_log.create ~capacity:4 () in
  for i = 0 to 3 do
    Event_log.record log (float_of_int i) (deliver i)
  done;
  Alcotest.(check int) "retained at boundary" 4 (Event_log.retained log);
  Alcotest.(check (list int)) "seqs at boundary" [ 0; 1; 2; 3 ]
    (List.map (fun e -> e.Event_log.seq) (Event_log.entries log));
  Event_log.record log 4. (deliver 4);
  Alcotest.(check int) "retained after wrap" 4 (Event_log.retained log);
  Alcotest.(check int) "recorded after wrap" 5 (Event_log.recorded log);
  Alcotest.(check (list int)) "seqs survive eviction" [ 1; 2; 3; 4 ]
    (List.map (fun e -> e.Event_log.seq) (Event_log.entries log));
  Alcotest.(check (list int)) "payloads rotate" [ 1; 2; 3; 4 ]
    (List.map
       (fun e ->
         match e.Event_log.obs with
         | Engine.Obs_deliver { dst; _ } -> dst
         | _ -> -1)
       (Event_log.entries log))

let test_ring_capacity_one () =
  let log = Event_log.create ~capacity:1 () in
  for i = 0 to 2 do
    Event_log.record log (float_of_int i) (deliver i)
  done;
  Alcotest.(check int) "retained" 1 (Event_log.retained log);
  Alcotest.(check int) "recorded" 3 (Event_log.recorded log);
  match Event_log.entries log with
  | [ e ] -> Alcotest.(check int) "newest kept" 2 e.Event_log.seq
  | _ -> Alcotest.fail "expected one entry"

(* The human-readable line, byte for byte for every kind: a monitor
   violation records it as its context, so the committed .repro fixtures
   hold these bytes (the first two lines are taken from them). *)
let test_entry_to_string () =
  List.iter
    (fun (time, obs, expected) ->
      Alcotest.(check string) expected expected
        (Event_log.entry_to_string time obs))
    [
      ( 125.423473,
        Engine.Obs_deliver { dst = 6; port = 0 },
        "  125.4235  deliver  -> 6 (port 0)" );
      ( 1020.005264,
        Engine.Obs_timer { node = 2; tag = 1 },
        " 1020.0053  timer    @ 2 (tag 1)" );
      ( 0.5,
        Engine.Obs_send { src = 0; dst = 1; edge = 2; delay = 0.125 },
        "    0.5000  send     0 -> 1 (edge 2, delay 0.1250)" );
      ( 1.,
        Engine.Obs_drop { src = 3; dst = 4; edge = 5 },
        "    1.0000  drop     3 -> 4 (edge 5)" );
      ( 2.,
        Engine.Obs_rate_change { node = 10; rate = 1.005 },
        "    2.0000  rate     @ 10 -> 1.005000" );
      (3., Engine.Obs_node_down { node = 11 }, "    3.0000  down     @ 11");
      ( 4.,
        Engine.Obs_node_up { node = 12; wipe = true },
        "    4.0000  up       @ 12 (wiped)" );
      ( 4.5,
        Engine.Obs_node_up { node = 13; wipe = false },
        "    4.5000  up       @ 13" );
      (5., Engine.Obs_edge_down { edge = 14 }, "    5.0000  cut      edge 14");
      (6., Engine.Obs_edge_up { edge = 15 }, "    6.0000  healed   edge 15");
      ( 7.,
        Engine.Obs_fault_drop { src = 16; dst = 17; edge = 18 },
        "    7.0000  f-drop   16 -> 17 (edge 18)" );
      ( 8.,
        Engine.Obs_duplicate { src = 19; dst = 20; edge = 21 },
        "    8.0000  dup      19 -> 20 (edge 21)" );
      ( 9.,
        Engine.Obs_corrupt { src = 22; dst = 23; edge = 24 },
        "    9.0000  corrupt  22 -> 23 (edge 24)" );
      ( 10.,
        Engine.Obs_lie { src = 25; dst = 26; edge = 27 },
        "   10.0000  lie      25 -> 26 (edge 27)" );
    ]

(* Two nodes on one edge; node 0 sends one message at start and [delays]
   decides its fate. *)
let one_message_engine delays =
  let clocks = Array.init 2 (fun _ -> Hc.create ~t0:0. ~rate:1. ()) in
  Engine.create ~graph:(Topology.line 2) ~clocks ~delays
    ~rng:(Prng.create ~seed:1) ~t0:0. ~make_node:(fun v ->
      {
        Engine.on_init = (fun api -> if v = 0 then api.Engine.send ~port:0 ());
        on_message = (fun _ ~port:_ () -> ());
        on_timer = (fun _ ~tag:_ -> ());
      })

let unit_delay = Dm.uniform (Dm.bounds ~d_min:1. ~d_max:1.)

let test_attach_to_engine () =
  let engine = one_message_engine unit_delay in
  let log = Event_log.create () in
  Event_log.attach log engine;
  Engine.run_until engine 5.;
  match Event_log.entries log with
  | [
   { Event_log.obs = Engine.Obs_send { delay; _ }; time = t0; _ };
   { Event_log.obs = Engine.Obs_deliver _; time = t1; _ };
  ] ->
      Alcotest.(check (float 1e-9)) "delivery lag" delay (t1 -. t0)
  | _ -> Alcotest.fail "expected one send, then its delivery"

let test_drop_observed () =
  let lossy = Dm.with_loss 1. unit_delay in
  let engine = one_message_engine lossy in
  let log = Event_log.create () in
  Event_log.attach log engine;
  Engine.run_until engine 5.;
  let count kind =
    List.length
      (List.filter (fun e -> kind e.Event_log.obs) (Event_log.entries log))
  in
  Alcotest.(check int) "drop observed" 1
    (count (function Engine.Obs_drop _ -> true | _ -> false));
  Alcotest.(check int) "nothing delivered" 0
    (count (function Engine.Obs_deliver _ -> true | _ -> false));
  Alcotest.(check int) "engine counter" 1 (Engine.messages_dropped engine)

(* encode -> parse -> re-encode must be the identity on bytes, for every
   kind, with and without a run tag. *)
let test_jsonl_roundtrip () =
  let log = Event_log.create () in
  record_all log;
  List.iter
    (fun line ->
      match Event_log.validate_line line with
      | Ok _ -> ()
      | Error e -> Alcotest.fail (Printf.sprintf "%s: %s" e line))
    (Event_log.to_lines log);
  List.iter
    (fun line ->
      match Event_log.validate_line line with
      | Ok p ->
          Alcotest.(check (option int)) "run tag" (Some 3) p.Event_log.run
      | Error e -> Alcotest.fail (Printf.sprintf "%s: %s" e line))
    (Event_log.to_lines ~run:3 log)

let test_parse_rejections () =
  let reject name line =
    match Event_log.parse_line line with
    | Ok _ -> Alcotest.fail (name ^ ": should have been rejected")
    | Error _ -> ()
  in
  reject "not json" "hello";
  reject "unknown tag" {|{"seq":0,"t":1,"ev":"warp","node":1}|};
  reject "missing field" {|{"seq":0,"t":1,"ev":"send","src":1,"dst":2}|};
  reject "extra field"
    {|{"seq":0,"t":1,"ev":"timer","node":1,"tag":2,"rate":1.5}|};
  reject "bad value type" {|{"seq":0,"t":1,"ev":"timer","node":"x","tag":2}|};
  reject "trailing bytes" {|{"seq":0,"t":1,"ev":"edge_up","edge":1}junk|};
  match
    Event_log.parse_line {|{"seq":0,"t":1,"ev":"timer","node":1,"tag":2}|}
  with
  | Ok p ->
      Alcotest.(check bool) "good line parses" true
        (p.Event_log.entry.Event_log.obs
        = Engine.Obs_timer { node = 1; tag = 2 })
  | Error e -> Alcotest.fail e

let test_csv_export () =
  let log = Event_log.create ~format_:Event_log.Csv () in
  record_all log;
  let width = List.length (Event_log.csv_header ()) in
  List.iter
    (fun line ->
      Alcotest.(check int) "column count" width
        (List.length (String.split_on_char ',' line)))
    (Event_log.to_lines log)

let test_series_recorder () =
  let s = Series.create () in
  let point i =
    {
      Series.time = float_of_int i;
      global_skew = 2.0 +. float_of_int i;
      local_skew = 1.0;
      profile = [| (1, 0.5); (2, 1.5) |];
      values = [| 0.; 1.; 2. |];
      rates = [| 1.01; 0.99; 1.0 |];
      watched = [| 0.5 |];
    }
  in
  for i = 0 to 2 do
    Series.record s (point i)
  done;
  Alcotest.(check int) "length" 3 (Series.length s);
  let pts = Series.points s in
  Alcotest.(check (float 0.)) "order" 0. pts.(0).Series.time;
  Alcotest.(check (float 0.)) "order last" 2. pts.(2).Series.time;
  let header = Series.csv_header ~values:3 ~rates:3 ~hops:2 ~watched:1 () in
  Array.iter
    (fun p ->
      Alcotest.(check int) "row width" (List.length header)
        (List.length (Series.csv_row p)))
    pts

let test_profiler_merge () =
  let base =
    {
      Profiler.events = 10;
      messages = 4;
      deliver_count = 3;
      timer_count = 5;
      control_count = 2;
      deliver_wall = 0.25;
      timer_wall = 0.5;
      control_wall = 0.125;
      heap_high_water = 7;
      total_wall = 0.875;
      phases = [ ("warmup", 0.25); ("measure", 0.625) ];
    }
  in
  let other =
    {
      base with
      Profiler.events = 6;
      heap_high_water = 11;
      phases = [ ("warmup", 0.5); ("measure", 0.125) ];
    }
  in
  let m = Profiler.merge [ base; other ] in
  Alcotest.(check int) "events summed" 16 m.Profiler.events;
  Alcotest.(check int) "heap is max" 11 m.Profiler.heap_high_water;
  Alcotest.(check (float 1e-9)) "total summed" 1.75 m.Profiler.total_wall;
  Alcotest.(check (float 1e-9)) "phase summed" 0.75
    (List.assoc "warmup" m.Profiler.phases);
  Alcotest.check_raises "empty merge rejected"
    (Invalid_argument "Profiler.merge: empty list") (fun () ->
      ignore (Profiler.merge []))

let spec = Gcs_core.Spec.make ()

let faulted_cfg ?obs ~seed n =
  let graph = Topology.ring n in
  let plan =
    Fault_plan.of_events
      [
        Fault_plan.Link_partition { at = 15.; edges = Fault_plan.Cut [ 0 ] };
        Fault_plan.Link_heal { at = 30.; edges = Fault_plan.Cut [ 0 ] };
      ]
  in
  Runner.config ~spec ~algo:Algorithm.Gradient_sync ~horizon:45. ~seed
    ~fault_plan:plan ?obs graph

(* Full capture on a faulted run: observers must not perturb the skew
   summary, and every requested sink must come back populated. *)
let test_runner_capture () =
  let bare = Runner.run (faulted_cfg ~seed:5 12) in
  let r =
    Runner.run (faulted_cfg ~obs:(Capture.full ~series_period:5. ()) ~seed:5 12)
  in
  Alcotest.(check bool) "summary unperturbed" true
    (bare.Runner.summary = r.Runner.summary);
  Alcotest.(check bool) "bare capture is empty" true
    (bare.Runner.obs = Capture.empty);
  (match r.Runner.obs.Capture.event_log with
  | None -> Alcotest.fail "no event log"
  | Some log ->
      Alcotest.(check bool) "events recorded" true
        (Event_log.recorded log > 0);
      (* The partition at t=15 must show up as an edge_down event. *)
      let has_cut =
        List.exists
          (fun e ->
            match e.Event_log.obs with
            | Engine.Obs_edge_down _ -> true
            | _ -> false)
          (Event_log.entries log)
      in
      Alcotest.(check bool) "fault visible in log" true has_cut);
  (match r.Runner.obs.Capture.series with
  | None -> Alcotest.fail "no series"
  | Some s ->
      (* Points at t = 0, 5, ..., 45. *)
      Alcotest.(check int) "series cadence" 10 (Series.length s);
      let p = (Series.points s).(0) in
      Alcotest.(check int) "values captured" 12 (Array.length p.Series.values);
      Alcotest.(check int) "rates captured" 12 (Array.length p.Series.rates);
      Alcotest.(check bool) "profile captured" true
        (Array.length p.Series.profile > 0));
  match r.Runner.obs.Capture.profile with
  | None -> Alcotest.fail "no profiler report"
  | Some rep ->
      Alcotest.(check bool) "dispatches counted" true
        (rep.Profiler.deliver_count > 0 && rep.Profiler.timer_count > 0);
      Alcotest.(check int) "events agree" r.Runner.events rep.Profiler.events;
      Alcotest.(check (list string)) "phases in order"
        [ "warmup"; "measure" ]
        (List.map fst rep.Profiler.phases)

let export ~jobs cfgs =
  let results = Parallel_run.run ~jobs cfgs in
  let buf = Buffer.create 4096 in
  Array.iteri
    (fun i r ->
      match r.Runner.obs.Capture.event_log with
      | None -> ()
      | Some log ->
          List.iter
            (fun line ->
              Buffer.add_string buf line;
              Buffer.add_char buf '\n')
            (Event_log.to_lines ~run:i log))
    results;
  Buffer.contents buf

(* The acceptance property: the concatenated JSONL export of a faulted
   multi-seed batch is byte-identical no matter how many domains ran it. *)
let prop_jobs_byte_identity =
  QCheck.Test.make ~count:8 ~name:"event log bytes independent of --jobs"
    QCheck.(pair (int_bound 999) (int_range 6 14))
    (fun (seed, n) ->
      let obs = { Capture.none with Capture.events = true } in
      let cfgs =
        Array.init 2 (fun k -> faulted_cfg ~obs ~seed:(seed + (1000 * k)) n)
      in
      let serial = export ~jobs:1 cfgs in
      let parallel = export ~jobs:4 cfgs in
      String.length serial > 0 && String.equal serial parallel)

let suite =
  [
    Alcotest.test_case "storage roundtrip" `Quick test_storage_roundtrip;
    Alcotest.test_case "storage escape path" `Quick test_storage_escape_path;
    Alcotest.test_case "grow across chunks" `Quick test_grow_across_chunks;
    Alcotest.test_case "ring exact capacity" `Quick test_ring_exact_capacity;
    Alcotest.test_case "ring capacity one" `Quick test_ring_capacity_one;
    Alcotest.test_case "human-readable line per kind" `Quick
      test_entry_to_string;
    Alcotest.test_case "attach to engine" `Quick test_attach_to_engine;
    Alcotest.test_case "drop observed" `Quick test_drop_observed;
    Alcotest.test_case "jsonl roundtrip" `Quick test_jsonl_roundtrip;
    Alcotest.test_case "parse rejections" `Quick test_parse_rejections;
    Alcotest.test_case "csv export" `Quick test_csv_export;
    Alcotest.test_case "series recorder" `Quick test_series_recorder;
    Alcotest.test_case "profiler merge" `Quick test_profiler_merge;
    Alcotest.test_case "runner capture" `Quick test_runner_capture;
    QCheck_alcotest.to_alcotest prop_jobs_byte_identity;
  ]
