(* The engine's event queues: every queued event lives in per-queue
   columns (a timer as its slot, a delivery or a control as a handle into
   the queue's pool) and a heap orders its int handle. An engine steps
   over small random graphs while a script of controls partitions and
   heals edges, crashes and recovers nodes (with and without wiping their
   state) and changes clock rates. After every step the pending snapshot
   must agree with what the nodes themselves armed and sent: exactly the
   live timers (no ghost of a re-keyed or cancelled timer) and each
   message in flight once. Every queue entry must also be accounted for:
   the pushes the nodes and the script caused equal the pops plus the
   entries still queued, so a stale timer entry that does anything at all
   shows up. Handles are reused all the time here — every timer fire
   re-arms, every dispatch frees its handle — so a handle freed too early
   shows up as a mismatch. Half the scenarios give every link the same
   fixed delay, so messages sent on one port at one instant arrive
   together and only their sequence numbers order them: each link must
   then deliver in send order. *)

module Engine = Gcs_sim.Engine
module Dm = Gcs_sim.Delay_model
module Graph = Gcs_graph.Graph
module Topology = Gcs_graph.Topology
module Hc = Gcs_clock.Hardware_clock
module Prng = Gcs_util.Prng

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
  fifo : bool; (* every delay exactly 0.7 *)
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
  Printf.sprintf "shape %d n %d seed %d%s steps %d: %s" sc.shape sc.n sc.seed
    (if sc.fifo then " fifo" else "")
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
    let* fifo = bool in
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
    return { shape; n; seed; fifo; script; steps })

(* What the nodes of one engine armed and sent, kept by their handlers,
   and how many queue entries that and the script pushed. *)
type model = {
  armed : (int * float) list array; (* per node: (tag, hardware target) *)
  mutable next_id : int; (* message ids are unique *)
  delivered : (int, unit) Hashtbl.t;
  last_in : (int * int, int) Hashtbl.t; (* (node, port) -> last id *)
  mutable pushes : int;
  mutable ok : bool;
}

let build sc =
  let graph = graph_of sc in
  let n = Graph.n graph and m = Graph.m graph in
  let model =
    {
      armed = Array.make n [];
      next_id = 0;
      delivered = Hashtbl.create 64;
      last_in = Hashtbl.create 64;
      pushes = List.length sc.script (* one per control *);
      ok = true;
    }
  in
  let arm (api : int Engine.api) ~after ~tag =
    model.pushes <- model.pushes + 1;
    let h = api.Engine.clock.hw +. after in
    model.armed.(api.Engine.node) <- (tag, h) :: model.armed.(api.Engine.node);
    api.Engine.set_timer ~after ~tag
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
          arm api ~after:(0.5 +. (0.1 *. float_of_int v)) ~tag:0;
          arm api ~after:1.3 ~tag:1);
      on_message =
        (fun api ~port id ->
          if Hashtbl.mem model.delivered id then model.ok <- false;
          Hashtbl.replace model.delivered id ();
          (* Ids grow with send time, and a fixed delay keeps links FIFO. *)
          if sc.fifo then begin
            let link = (api.Engine.node, port) in
            (match Hashtbl.find_opt model.last_in link with
            | Some last when last > id -> model.ok <- false
            | _ -> ());
            Hashtbl.replace model.last_in link id
          end;
          if id mod 3 = 0 then
            arm api ~after:0.4 ~tag:2);
      on_timer =
        (fun api ~tag ->
          let h = api.Engine.clock.hw in
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
          | 0 -> arm api ~after:1. ~tag:0
          | 1 ->
              for p = 0 to api.Engine.ports - 1 do
                send api p
              done;
              arm api ~after:1.7 ~tag:1
          | _ -> ());
    }
  in
  let clocks =
    Array.init n (fun v ->
        Hc.create ~t0:0. ~rate:(1. +. (0.01 *. float_of_int v)) ())
  in
  let engine =
    Engine.of_config
      (Engine.config ~graph ~clocks
         ~delays:
           (Dm.uniform
              (if sc.fifo then Dm.bounds ~d_min:0.7 ~d_max:0.7
               else Dm.bounds ~d_min:0.3 ~d_max:1.2))
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

let prop_snapshots =
  QCheck.Test.make ~name:"snapshots match what the nodes armed and sent"
    ~count:120
    (QCheck.make ~print:print_scenario scenario_gen)
    (fun sc ->
      let e, m = build sc in
      let ok = ref true and i = ref 0 in
      while !ok && !i < sc.steps do
        incr i;
        ignore (Engine.step e);
        ok := m.ok && consistent e m
      done;
      !ok)

let suite = [ QCheck_alcotest.to_alcotest prop_snapshots ]
