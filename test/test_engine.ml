module Engine = Gcs_sim.Engine
module Dm = Gcs_sim.Delay_model
module Graph = Gcs_graph.Graph
module Topology = Gcs_graph.Topology
module Hc = Gcs_clock.Hardware_clock
module Prng = Gcs_util.Prng

type msg = Ping of float | Pong

let perfect_clocks n = Array.init n (fun _ -> Hc.create ~t0:0. ~rate:1. ())

let make_engine ?(n = 2) ?(clocks = None) ?(delays = Dm.uniform (Dm.bounds ~d_min:1. ~d_max:1.))
    ?(graph = None) make_node =
  let graph = match graph with Some g -> g | None -> Topology.line n in
  let clocks =
    match clocks with Some c -> c | None -> perfect_clocks (Graph.n graph)
  in
  Engine.create ~graph ~clocks ~delays ~rng:(Prng.create ~seed:1) ~make_node
    ~t0:0.

let null_handlers =
  {
    Engine.on_init = (fun _ -> ());
    on_message = (fun _ ~port:_ _ -> ());
    on_timer = (fun _ ~tag:_ -> ());
  }

let test_init_runs_once_per_node () =
  let inits = ref [] in
  let engine =
    make_engine ~n:3 (fun v ->
        {
          null_handlers with
          Engine.on_init = (fun api -> inits := (v, api.Engine.node) :: !inits);
        })
  in
  Engine.run_until engine 0.;
  Alcotest.(check (list (pair int int)))
    "init order and identity"
    [ (0, 0); (1, 1); (2, 2) ]
    (List.rev !inits)

let test_message_delivery_time () =
  let received = ref [] in
  let engine =
    make_engine ~n:2
      ~delays:(Dm.uniform (Dm.bounds ~d_min:2.5 ~d_max:2.5))
      (fun v ->
        {
          null_handlers with
          Engine.on_init =
            (fun api -> if v = 0 then api.Engine.send ~port:0 (Ping 0.));
          on_message =
            (fun api ~port:_ _ ->
              received := api.Engine.hardware () :: !received);
        })
  in
  Engine.run_until engine 10.;
  Alcotest.(check (list (float 1e-9))) "arrives at send + delay" [ 2.5 ] !received

let test_delivery_within_bounds =
  QCheck.Test.make ~name:"every delivery within [d_min, d_max] of send"
    ~count:50 QCheck.small_nat
    (fun seed ->
      let bounds = Dm.bounds ~d_min:0.3 ~d_max:1.7 in
      let log = ref [] in
      let graph = Topology.ring 5 in
      let clocks = perfect_clocks 5 in
      let engine_holder = ref None in
      let engine =
        Engine.create ~graph ~clocks ~delays:(Dm.uniform bounds)
          ~rng:(Prng.create ~seed) ~t0:0.
          ~make_node:(fun _ ->
            {
              Engine.on_init =
                (fun api ->
                  api.Engine.set_timer ~h:(api.Engine.hardware ()) ~tag:0);
              on_message =
                (fun _api ~port:_ msg ->
                  match msg with
                  | Pong -> ()
                  | Ping sent_at ->
                      let now =
                        match !engine_holder with
                        | Some e -> Engine.now e
                        | None -> nan
                      in
                      log := (sent_at, now) :: !log);
              on_timer =
                (fun api ~tag:_ ->
                  for p = 0 to api.Engine.ports - 1 do
                    api.Engine.send ~port:p (Ping (api.Engine.hardware ()))
                  done;
                  let h = api.Engine.hardware () in
                  if h < 20. then api.Engine.set_timer ~h:(h +. 1.) ~tag:0);
            })
      in
      engine_holder := Some engine;
      Engine.run_until engine 30.;
      !log <> []
      && List.for_all
           (fun (sent, recv) ->
             recv -. sent >= 0.3 -. 1e-9 && recv -. sent <= 1.7 +. 1e-9)
           !log)

let test_timer_fires_at_hardware_time () =
  (* Node 0's clock runs at rate 2: a timer for hardware time 10 must fire
     at real time 5. *)
  let fired_at = ref nan in
  let clocks = [| Hc.create ~t0:0. ~rate:2. (); Hc.create ~t0:0. ~rate:1. () |] in
  let engine_holder = ref None in
  let engine =
    make_engine ~n:2 ~clocks:(Some clocks) (fun v ->
        {
          null_handlers with
          Engine.on_init =
            (fun api -> if v = 0 then api.Engine.set_timer ~h:10. ~tag:7);
          on_timer =
            (fun _api ~tag ->
              Alcotest.(check int) "tag" 7 tag;
              match !engine_holder with
              | Some e -> fired_at := Engine.now e
              | None -> ());
        })
  in
  engine_holder := Some engine;
  Engine.run_until engine 20.;
  Alcotest.(check (float 1e-9)) "fired at real time 5" 5. !fired_at

let test_timer_in_past_fires_immediately () =
  let fired = ref false in
  let engine =
    make_engine ~n:2 (fun v ->
        {
          null_handlers with
          Engine.on_init =
            (fun api -> if v = 0 then api.Engine.set_timer ~h:(-5.) ~tag:0);
          on_timer = (fun _ ~tag:_ -> fired := true);
        })
  in
  Engine.run_until engine 1.;
  Alcotest.(check bool) "fired" true !fired

let test_timer_survives_rate_change () =
  (* Arm a timer for hardware time 10 at rate 1 (real 10); slow the clock to
     rate 0.5 at real time 4 (hardware 4). Remaining 6 hardware units now
     take 12 real units: the timer must fire at real time 16, not 10. *)
  let fired_at = ref nan in
  let engine_holder = ref None in
  let engine =
    make_engine ~n:2 (fun v ->
        {
          null_handlers with
          Engine.on_init =
            (fun api -> if v = 0 then api.Engine.set_timer ~h:10. ~tag:0);
          on_timer =
            (fun _ ~tag:_ ->
              match !engine_holder with
              | Some e -> fired_at := Engine.now e
              | None -> ());
        })
  in
  engine_holder := Some engine;
  Engine.schedule_control engine ~at:4. (fun () ->
      Engine.set_node_rate engine ~node:0 ~rate:0.5);
  Engine.run_until engine 30.;
  Alcotest.(check (float 1e-6)) "fires per hardware time" 16. !fired_at

let test_timer_rate_speedup () =
  (* Speeding the clock up must pull the firing time earlier. *)
  let fired_at = ref nan in
  let engine_holder = ref None in
  let engine =
    make_engine ~n:2 (fun v ->
        {
          null_handlers with
          Engine.on_init =
            (fun api -> if v = 0 then api.Engine.set_timer ~h:10. ~tag:0);
          on_timer =
            (fun _ ~tag:_ ->
              match !engine_holder with
              | Some e -> fired_at := Engine.now e
              | None -> ());
        })
  in
  engine_holder := Some engine;
  Engine.schedule_control engine ~at:4. (fun () ->
      Engine.set_node_rate engine ~node:0 ~rate:2.);
  Engine.run_until engine 30.;
  (* 4 hardware units by t=4, remaining 6 at rate 2 -> 3 more real units. *)
  Alcotest.(check (float 1e-6)) "fires earlier" 7. !fired_at

let test_control_events_ordered () =
  let order = ref [] in
  let engine = make_engine ~n:2 (fun _ -> null_handlers) in
  Engine.schedule_control engine ~at:5. (fun () -> order := 5 :: !order);
  Engine.schedule_control engine ~at:2. (fun () -> order := 2 :: !order);
  Engine.schedule_control engine ~at:9. (fun () -> order := 9 :: !order);
  Engine.run_until engine 10.;
  Alcotest.(check (list int)) "time order" [ 2; 5; 9 ] (List.rev !order)

let test_run_until_advances_now () =
  let engine = make_engine ~n:2 (fun _ -> null_handlers) in
  Engine.run_until engine 42.;
  Alcotest.(check (float 1e-9)) "now = horizon" 42. (Engine.now engine)

let test_horizon_respected () =
  let fired = ref false in
  let engine =
    make_engine ~n:2 (fun v ->
        {
          null_handlers with
          Engine.on_init =
            (fun api -> if v = 0 then api.Engine.set_timer ~h:50. ~tag:0);
          on_timer = (fun _ ~tag:_ -> fired := true);
        })
  in
  Engine.run_until engine 10.;
  Alcotest.(check bool) "future event not run" false !fired;
  Engine.run_until engine 60.;
  Alcotest.(check bool) "runs when horizon passes" true !fired

let test_counters () =
  let engine =
    make_engine ~n:2 (fun v ->
        {
          null_handlers with
          Engine.on_init =
            (fun api -> if v = 0 then api.Engine.send ~port:0 Pong);
        })
  in
  Engine.run_until engine 10.;
  Alcotest.(check int) "messages sent" 1 (Engine.messages_sent engine);
  Alcotest.(check int) "messages delivered" 1 (Engine.messages_delivered engine);
  Alcotest.(check bool) "events processed" true (Engine.events_processed engine >= 1)

let test_determinism () =
  let trace seed =
    let log = ref [] in
    let graph = Topology.ring 6 in
    let engine =
      Engine.create ~graph ~clocks:(perfect_clocks 6)
        ~delays:(Dm.uniform (Dm.bounds ~d_min:0.5 ~d_max:1.5))
        ~rng:(Prng.create ~seed) ~t0:0.
        ~make_node:(fun v ->
          {
            Engine.on_init =
              (fun api -> api.Engine.set_timer ~h:0.5 ~tag:0);
            on_message =
              (fun _ ~port msg ->
                let tag = match msg with Ping _ -> 1 | Pong -> 0 in
                log := (v, port, tag) :: !log);
            on_timer =
              (fun api ~tag:_ ->
                for p = 0 to api.Engine.ports - 1 do
                  api.Engine.send ~port:p (Ping (float_of_int v))
                done;
                let h = api.Engine.hardware () in
                if h < 10. then api.Engine.set_timer ~h:(h +. 1.) ~tag:0);
          })
    in
    Engine.run_until engine 15.;
    (!log, Engine.messages_sent engine, Engine.events_processed engine)
  in
  let l1, m1, e1 = trace 11 and l2, m2, e2 = trace 11 in
  Alcotest.(check bool) "same logs" true (l1 = l2);
  Alcotest.(check int) "same messages" m1 m2;
  Alcotest.(check int) "same events" e1 e2;
  let l3, _, _ = trace 12 in
  Alcotest.(check bool) "different seed differs" true (l1 <> l3)

let test_step_single_event () =
  let fired = ref 0 in
  let engine =
    make_engine ~n:2 (fun v ->
        {
          null_handlers with
          Engine.on_init =
            (fun api ->
              if v = 0 then begin
                api.Engine.set_timer ~h:1. ~tag:0;
                api.Engine.set_timer ~h:2. ~tag:0
              end);
          on_timer = (fun _ ~tag:_ -> incr fired);
        })
  in
  Alcotest.(check bool) "first step" true (Engine.step engine);
  Alcotest.(check int) "one timer so far" 1 !fired;
  Alcotest.(check bool) "second step" true (Engine.step engine);
  Alcotest.(check int) "both fired" 2 !fired;
  Alcotest.(check bool) "queue drained" false (Engine.step engine)

let test_pending_events_accessor () =
  let engine =
    make_engine ~n:2 (fun v ->
        {
          null_handlers with
          Engine.on_init =
            (fun api -> if v = 0 then api.Engine.set_timer ~h:50. ~tag:0);
        })
  in
  Engine.run_until engine 1.;
  Alcotest.(check int) "one pending" 1 (Engine.pending_events engine)

let test_observer_cleared () =
  let count = ref 0 in
  let engine =
    make_engine ~n:2 (fun v ->
        {
          null_handlers with
          Engine.on_init =
            (fun api -> if v = 0 then api.Engine.set_timer ~h:1. ~tag:0);
          on_timer =
            (fun api ~tag:_ ->
              let h = api.Engine.hardware () in
              if h < 5. then api.Engine.set_timer ~h:(h +. 1.) ~tag:0);
        })
  in
  Engine.add_observer engine (fun _ _ -> incr count);
  Engine.run_until engine 2.5;
  let seen = !count in
  Alcotest.(check bool) "observer saw events" true (seen > 0);
  Engine.clear_observer engine;
  Engine.run_until engine 10.;
  Alcotest.(check int) "silent after clear" seen !count

let test_stop_at_first_event () =
  (* Stop requested by the very first dispatched event: nothing else runs,
     [now] stays at the stop point, and the queue keeps its entries. *)
  let fired = ref 0 in
  let engine_holder = ref None in
  let engine =
    make_engine ~n:2 (fun v ->
        {
          null_handlers with
          Engine.on_init =
            (fun api -> if v = 0 then api.Engine.set_timer ~h:1. ~tag:0);
          on_timer = (fun _ ~tag:_ -> incr fired);
        })
  in
  engine_holder := Some engine;
  Engine.schedule_control engine ~at:0. (fun () ->
      Engine.request_stop (Option.get !engine_holder));
  Engine.run_until engine 10.;
  Alcotest.(check int) "no dispatch after stop" 0 !fired;
  Alcotest.(check bool) "flag set" true (Engine.stop_requested engine);
  Alcotest.(check (float 1e-9)) "now at stop event" 0. (Engine.now engine);
  Alcotest.(check int) "timer still pending" 1 (Engine.pending_events engine)

let test_stop_at_final_event () =
  (* Stop requested by the last event in the queue: everything before it
     ran, and [now] stays there instead of advancing to the horizon —
     sticky across later run_until calls. *)
  let fired = ref 0 in
  let engine_holder = ref None in
  let engine =
    make_engine ~n:2 (fun v ->
        {
          null_handlers with
          Engine.on_init =
            (fun api -> if v = 0 then api.Engine.set_timer ~h:1. ~tag:0);
          on_timer = (fun _ ~tag:_ -> incr fired);
        })
  in
  engine_holder := Some engine;
  Engine.schedule_control engine ~at:2. (fun () ->
      Engine.request_stop (Option.get !engine_holder));
  Engine.run_until engine 10.;
  Alcotest.(check int) "timer fired before stop" 1 !fired;
  Alcotest.(check (float 1e-9)) "now at last event" 2. (Engine.now engine);
  let events = Engine.events_processed engine in
  Engine.run_until engine 50.;
  Alcotest.(check int) "sticky: no further dispatches" events
    (Engine.events_processed engine);
  Alcotest.(check (float 1e-9)) "sticky: now unchanged" 2. (Engine.now engine)

let test_stop_requested_twice () =
  (* Requesting twice is the same as once; [run_until] never dispatches. *)
  let fired = ref 0 in
  let engine =
    make_engine ~n:2 (fun v ->
        {
          null_handlers with
          Engine.on_init =
            (fun api -> if v = 0 then api.Engine.set_timer ~h:1. ~tag:0);
          on_timer = (fun _ ~tag:_ -> incr fired);
        })
  in
  Engine.request_stop engine;
  Engine.request_stop engine;
  Engine.run_until engine 10.;
  Alcotest.(check int) "no dispatches" 0 !fired;
  Alcotest.(check int) "no events processed" 0 (Engine.events_processed engine);
  Alcotest.(check bool) "flag set" true (Engine.stop_requested engine);
  Alcotest.(check (float 1e-9)) "now never advanced" 0. (Engine.now engine)

let test_pending_snapshot_pop_order () =
  (* The snapshot renders the queue in exact pop order: delivery, timer,
     control, sorted by dispatch time with payloads visible. *)
  let engine =
    make_engine ~n:2
      ~delays:(Dm.uniform (Dm.bounds ~d_min:2. ~d_max:2.))
      (fun v ->
        {
          null_handlers with
          Engine.on_init =
            (fun api ->
              if v = 0 then begin
                api.Engine.set_timer ~h:5. ~tag:3;
                api.Engine.send ~port:0 (Ping 1.)
              end);
        })
  in
  Engine.schedule_control engine ~at:9. (fun () -> ());
  Engine.run_until engine 0.;
  match Engine.pending_snapshot engine with
  | [
   Engine.Pending_deliver { at = d_at; dst; port; edge; msg = Ping payload };
   Engine.Pending_timer { at = t_at; node; h_target; tag };
   Engine.Pending_control { at = c_at };
  ] ->
      Alcotest.(check (float 1e-9)) "delivery at send + delay" 2. d_at;
      Alcotest.(check int) "dst" 1 dst;
      Alcotest.(check int) "port" 0 port;
      Alcotest.(check int) "edge" 0 edge;
      Alcotest.(check (float 1e-9)) "payload" 1. payload;
      Alcotest.(check (float 1e-9)) "timer at its hardware target" 5. t_at;
      Alcotest.(check int) "timer node" 0 node;
      Alcotest.(check (float 1e-9)) "h_target" 5. h_target;
      Alcotest.(check int) "tag" 3 tag;
      Alcotest.(check (float 1e-9)) "control time" 9. c_at
  | l -> Alcotest.failf "unexpected snapshot of %d entries" (List.length l)

let test_pending_snapshot_filters_stale_timers () =
  (* Re-keying a node's timers (rate change) leaves stale ids in the heap;
     the snapshot must show exactly the live timers, re-aimed. *)
  let engine =
    make_engine ~n:2 (fun v ->
        {
          null_handlers with
          Engine.on_init =
            (fun api -> if v = 0 then api.Engine.set_timer ~h:5. ~tag:0);
        })
  in
  Engine.run_until engine 0.;
  Engine.set_node_rate engine ~node:0 ~rate:2.;
  Alcotest.(check bool) "heap holds the stale ghost" true
    (Engine.pending_events engine >= 2);
  match Engine.pending_snapshot engine with
  | [ Engine.Pending_timer { at; h_target; _ } ] ->
      Alcotest.(check (float 1e-9)) "re-aimed to rate 2" 2.5 at;
      Alcotest.(check (float 1e-9)) "same hardware target" 5. h_target
  | l -> Alcotest.failf "expected 1 live timer, got %d entries" (List.length l)

let test_rejects_wrong_clock_count () =
  let graph = Topology.line 3 in
  Alcotest.check_raises "clock count"
    (Invalid_argument "Engine.create: one hardware clock per node required")
    (fun () ->
      ignore
        (Engine.create ~graph ~clocks:(perfect_clocks 2)
           ~delays:(Dm.uniform (Dm.bounds ~d_min:1. ~d_max:1.))
           ~rng:(Prng.create ~seed:1)
           ~make_node:(fun _ -> null_handlers)
           ~t0:0.))

let suite =
  [
    Alcotest.test_case "init once per node" `Quick test_init_runs_once_per_node;
    Alcotest.test_case "delivery time" `Quick test_message_delivery_time;
    Alcotest.test_case "timer at hardware time" `Quick test_timer_fires_at_hardware_time;
    Alcotest.test_case "past timer immediate" `Quick test_timer_in_past_fires_immediately;
    Alcotest.test_case "timer across slowdown" `Quick test_timer_survives_rate_change;
    Alcotest.test_case "timer across speedup" `Quick test_timer_rate_speedup;
    Alcotest.test_case "control ordering" `Quick test_control_events_ordered;
    Alcotest.test_case "run_until advances now" `Quick test_run_until_advances_now;
    Alcotest.test_case "horizon respected" `Quick test_horizon_respected;
    Alcotest.test_case "counters" `Quick test_counters;
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "wrong clock count" `Quick test_rejects_wrong_clock_count;
    Alcotest.test_case "step" `Quick test_step_single_event;
    Alcotest.test_case "pending events" `Quick test_pending_events_accessor;
    Alcotest.test_case "observer clear" `Quick test_observer_cleared;
    QCheck_alcotest.to_alcotest test_delivery_within_bounds;
  ]
