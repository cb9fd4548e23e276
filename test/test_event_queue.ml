(* The engine's event queues: every queued event lives in per-queue
   columns (a timer as its slot, a delivery or a control as a handle into
   the queue's pool) and the scheduler orders its int handle. A heap engine
   and a calendar engine step in lockstep over small random graphs while a
   script of controls partitions and heals edges, crashes and recovers
   nodes (with and without wiping their state) and changes clock rates.
   After every step both engines must show the same pending snapshot and
   counters, and the snapshot must agree with what the nodes themselves
   armed and sent: exactly the live timers (no ghost of a re-keyed or
   cancelled timer) and each message in flight once. Every queue entry
   must also be accounted for: the pushes the nodes and the script caused
   equal the pops plus the entries still queued, so a stale timer entry
   that does anything at all shows up. Handles are reused all the time
   here — every timer fire re-arms, every dispatch frees its handle — so a
   handle freed too early shows up as a mismatch. *)

module Engine = Gcs_sim.Engine
module Dm = Gcs_sim.Delay_model
module Graph = Gcs_graph.Graph
module Topology = Gcs_graph.Topology
module Hc = Gcs_clock.Hardware_clock
module Prng = Gcs_util.Prng
module Scheduler = Gcs_util.Scheduler

type action =
  | Partition of int
  | Heal of int
  | Crash of int
  | Recover of int * bool (* wipe *)
  | Rate of int * float

type scenario = {
  shape : int; (* 0 ring, 1 line, 2 star, 3 complete *)
  n : int;
  seed : int;
  script : (float * action) list;
  steps : int;
}

let graph_of sc =
  match sc.shape with
  | 0 -> Topology.ring sc.n
  | 1 -> Topology.line sc.n
  | 2 -> Topology.star sc.n
  | _ -> Topology.complete sc.n

let print_scenario sc =
  let action = function
    | Partition e -> Printf.sprintf "partition e%d" e
    | Heal e -> Printf.sprintf "heal e%d" e
    | Crash v -> Printf.sprintf "crash %d" v
    | Recover (v, wipe) ->
        Printf.sprintf "recover %d%s" v (if wipe then " wipe" else "")
    | Rate (v, r) -> Printf.sprintf "rate %d %g" v r
  in
  Printf.sprintf "shape %d n %d seed %d steps %d: %s" sc.shape sc.n sc.seed
    sc.steps
    (String.concat "; "
       (List.map
          (fun (at, a) -> Printf.sprintf "%g %s" at (action a))
          sc.script))

let scenario_gen =
  QCheck.Gen.(
    let* shape = int_range 0 3 in
    let* n = int_range 3 6 in
    let* seed = int_range 0 10_000 in
    let* steps = int_range 50 400 in
    let action =
      frequency
        [
          (2, map (fun e -> Partition e) (int_range 0 14));
          (2, map (fun e -> Heal e) (int_range 0 14));
          (2, map (fun v -> Crash v) (int_range 0 5));
          (2, map2 (fun v w -> Recover (v, w)) (int_range 0 5) bool);
          ( 3,
            map2 (fun v r -> Rate (v, r)) (int_range 0 5) (float_range 0.5 2.)
          );
        ]
    in
    let* script =
      list_size (int_range 0 12) (pair (float_range 0. 25.) action)
    in
    return { shape; n; seed; script; steps })

(* What the nodes of one engine armed and sent, kept by their handlers,
   and how many queue entries that and the script pushed. *)
type model = {
  armed : (int * float) list array; (* per node: (tag, hardware target) *)
  mutable next_id : int; (* message ids are unique *)
  delivered : (int, unit) Hashtbl.t;
  mutable pushes : int;
  mutable ok : bool;
}

let build kind sc =
  let graph = graph_of sc in
  let n = Graph.n graph and m = Graph.m graph in
  let model =
    {
      armed = Array.make n [];
      next_id = 0;
      delivered = Hashtbl.create 64;
      pushes = List.length sc.script (* one per control *);
      ok = true;
    }
  in
  let arm (api : int Engine.api) ~h ~tag =
    model.pushes <- model.pushes + 1;
    model.armed.(api.Engine.node) <- (tag, h) :: model.armed.(api.Engine.node);
    api.Engine.set_timer ~h ~tag
  in
  let send (api : int Engine.api) port =
    let id = model.next_id in
    model.next_id <- id + 1;
    api.Engine.send ~port id
  in
  let make_node v =
    let fires = ref 0 in
    {
      Engine.on_init =
        (fun api ->
          let h = api.Engine.hardware () in
          arm api ~h:(h +. 0.5 +. (0.1 *. float_of_int v)) ~tag:0;
          arm api ~h:(h +. 1.3) ~tag:1);
      on_message =
        (fun api ~port:_ id ->
          if Hashtbl.mem model.delivered id then model.ok <- false;
          Hashtbl.replace model.delivered id ();
          if id mod 3 = 0 then
            arm api ~h:(api.Engine.hardware () +. 0.4) ~tag:2);
      on_timer =
        (fun api ~tag ->
          let h = api.Engine.hardware () in
          (* The earliest armed target of this tag fires, and not early. *)
          let mine, others =
            List.partition (fun (t, _) -> t = tag) model.armed.(v)
          in
          (match List.sort compare mine with
          | (_, target) :: rest ->
              if h +. 1e-9 < target then model.ok <- false;
              model.armed.(v) <- rest @ others
          | [] -> model.ok <- false);
          incr fires;
          send api (!fires mod api.Engine.ports);
          match tag with
          | 0 -> arm api ~h:(h +. 1.) ~tag:0
          | 1 ->
              for p = 0 to api.Engine.ports - 1 do
                send api p
              done;
              arm api ~h:(h +. 1.7) ~tag:1
          | _ -> ());
    }
  in
  let clocks =
    Array.init n (fun v ->
        Hc.create ~t0:0. ~rate:(1. +. (0.01 *. float_of_int v)) ())
  in
  let engine =
    Engine.of_config
      (Engine.config ~scheduler:kind ~graph ~clocks
         ~delays:(Dm.uniform (Dm.bounds ~d_min:0.3 ~d_max:1.2))
         ~rng:(Prng.create ~seed:sc.seed) ~make_node ~t0:0.
         ~observers:
           [
             (* Every message that enters the network is one queue entry. *)
             (fun _ -> function
               | Engine.Obs_send _ -> model.pushes <- model.pushes + 1
               | _ -> ());
           ]
         ())
  in
  List.iter
    (fun (at, action) ->
      Engine.schedule_control engine ~at (fun () ->
          match action with
          | Partition e -> Engine.set_edge_up engine ~edge:(e mod m) ~up:false
          | Heal e -> Engine.set_edge_up engine ~edge:(e mod m) ~up:true
          | Crash v ->
              (* A crash cancels every pending timer of the node. *)
              Engine.crash_node engine ~node:(v mod n);
              model.armed.(v mod n) <- []
          | Recover (v, wipe) ->
              Engine.recover_node engine ~node:(v mod n) ~wipe
          | Rate (v, rate) ->
              (* A rate change re-keys each pending timer: one entry each. *)
              model.pushes <- model.pushes + List.length model.armed.(v mod n);
              Engine.set_node_rate engine ~node:(v mod n) ~rate))
    sc.script;
  (engine, model)

let counters e =
  [
    Engine.events_processed e;
    Engine.messages_sent e;
    Engine.messages_delivered e;
    Engine.messages_dropped e;
    Engine.messages_dropped_faults e;
    Engine.pending_events e;
    Engine.dispatch_count e Engine.Dispatch_deliver;
    Engine.dispatch_count e Engine.Dispatch_timer;
    Engine.dispatch_count e Engine.Dispatch_control;
  ]

(* The snapshot against the nodes' own account: the pending timers are
   exactly the armed ones, every message sent is delivered, dropped or in
   flight exactly once, and every entry pushed is popped or still queued
   (a stale entry popped is dropped, never re-aimed). *)
let consistent e model =
  let snap = Engine.pending_snapshot e in
  let timers = Array.make (Array.length model.armed) [] in
  let in_flight = ref [] in
  List.iter
    (function
      | Engine.Pending_timer { node; tag; h_target; _ } ->
          timers.(node) <- (tag, h_target) :: timers.(node)
      | Engine.Pending_deliver { msg; _ } -> in_flight := msg :: !in_flight
      | Engine.Pending_control _ -> ())
    snap;
  let same_timers =
    Array.for_all2
      (fun a b -> List.sort compare a = List.sort compare b)
      timers model.armed
  in
  let flying = List.length !in_flight in
  same_timers
  && List.length (List.sort_uniq compare !in_flight) = flying
  && List.for_all (fun id -> not (Hashtbl.mem model.delivered id)) !in_flight
  && Engine.messages_sent e
     = Engine.messages_delivered e + Engine.messages_dropped e
       + Engine.messages_dropped_faults e + flying
  && model.pushes = Engine.events_processed e + Engine.pending_events e

let prop_lockstep =
  QCheck.Test.make
    ~name:"heap and calendar engines in lockstep; snapshots match the nodes"
    ~count:120
    (QCheck.make ~print:print_scenario scenario_gen)
    (fun sc ->
      let e1, m1 = build Scheduler.Binary_heap sc in
      let e2, m2 = build Scheduler.Calendar sc in
      let ok = ref true and i = ref 0 in
      while !ok && !i < sc.steps do
        incr i;
        let s1 = Engine.step e1 and s2 = Engine.step e2 in
        ok :=
          s1 = s2
          && Engine.now e1 = Engine.now e2
          && counters e1 = counters e2
          && Engine.pending_snapshot e1 = Engine.pending_snapshot e2
          && m1.ok && m2.ok && consistent e1 m1
      done;
      !ok)

let suite = [ QCheck_alcotest.to_alcotest prop_lockstep ]
