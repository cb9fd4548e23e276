module Graph = Gcs_graph.Graph
module Spec = Gcs_core.Spec
module Algorithm = Gcs_core.Algorithm
module Message = Gcs_core.Message
module Registry = Gcs_core.Registry
module Engine = Gcs_sim.Engine
module Fault_plan = Gcs_sim.Fault_plan
module Drift = Gcs_clock.Drift
module Hardware_clock = Gcs_clock.Hardware_clock
module Logical_clock = Gcs_clock.Logical_clock
module Prng = Gcs_util.Prng
module Event_log = Gcs_obs.Event_log

type config = {
  node : int;
  graph : Graph.t;
  spec : Spec.t;
  algo : Algorithm.kind;
  drift_of_node : int -> Drift.pattern;
  seed : int;
  t0 : float;
  horizon : float;
  sample_period : float;
  base_port : int;
  host : string;
  fault_plan : Fault_plan.t option;
}

type outcome = {
  node : int;
  events : Event_log.t;
  samples : (float * float) list;
  udp : Udp.stats;
  timers : int;
  deliveries : int;
  drops_fault : int;
  duplicates : int;
  corruptions : int;
  lies : int;
  jumps : Logical_clock.jump_stats;
}

(* Insert into a list sorted ascending on the key produced by [key]. *)
let rec insert_by key x = function
  | [] -> [ x ]
  | y :: _ as l when key x < key y -> x :: l
  | y :: rest -> y :: insert_by key x rest

let run (cfg : config) =
  (match Spec.validate cfg.spec with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Live_node.run: " ^ msg));
  let v = cfg.node in
  let n = Graph.n cfg.graph in
  (* Clock construction mirrors [Runner.prepare] stream-for-stream: one
     master rng, a drift split consumed over all n nodes in order, and an
     (unused here) engine split, so rates agree with the simulator. *)
  let rng = Prng.create ~seed:cfg.seed in
  let drift_rng = Prng.split rng in
  let _engine_rng = Prng.split rng in
  let band = Drift.band ~rho:cfg.spec.Spec.rho in
  let clocks =
    Array.init n (fun w ->
        Drift.make_clock (cfg.drift_of_node w) ~band ~t0:0.
          ~horizon:cfg.horizon ~rng:drift_rng)
  in
  let logical =
    Array.init n (fun w ->
        Logical_clock.create ~hardware:clocks.(w) ~now:0. ~value:0. ~mult:1.)
  in
  let hw = clocks.(v) in
  let lc = logical.(v) in
  let udp =
    Udp.create ~node:v ~graph:cfg.graph ~base_port:cfg.base_port
      ~host:cfg.host ()
  in
  let inject =
    Option.map
      (fun p -> Inject.create ~graph:cfg.graph ~node:v ~seed:cfg.seed p)
      cfg.fault_plan
  in
  let log = Event_log.create () in
  let started = ref false in
  let now () =
    if not !started then 0. else Float.max 0. (Wall.now () -. cfg.t0)
  in
  let timers = ref 0 in
  let deliveries = ref 0 in
  let drops_fault = ref 0 in
  let duplicates = ref 0 in
  let corruptions = ref 0 in
  let lies = ref 0 in
  let down = ref false in
  let pending_timers = ref [] (* (h, tag), ascending h *) in
  let pending_sends = ref [] (* (release, port, msg), ascending release *) in
  let record obs = Event_log.record log (now ()) obs in
  let transmit ~port msg = Udp.send udp ~port msg in
  let flush_sends () =
    let t = now () in
    let due, later =
      List.partition (fun (release, _, _) -> release <= t) !pending_sends
    in
    pending_sends := later;
    List.iter (fun (_, port, msg) -> transmit ~port msg) due
  in
  let next_send_release () =
    match !pending_sends with (r, _, _) :: _ -> Some r | [] -> None
  in
  let do_send ~port msg =
    if not !down then begin
      let t = now () in
      let edge = Graph.edge_at_port cfg.graph v port in
      let dst = Graph.neighbor_at_port cfg.graph v port in
      match inject with
      | None ->
          record (Engine.Obs_send { src = v; dst; edge; delay = 0. });
          transmit ~port msg
      | Some inj ->
          let verdict = Inject.outgoing inj ~now:t ~edge ~dst msg in
          if verdict.Inject.fault_drop then begin
            incr drops_fault;
            record (Engine.Obs_fault_drop { src = v; dst; edge })
          end
          else begin
            if verdict.Inject.lied then begin
              incr lies;
              record (Engine.Obs_lie { src = v; dst; edge })
            end;
            if verdict.Inject.corrupted then begin
              incr corruptions;
              record (Engine.Obs_corrupt { src = v; dst; edge })
            end;
            if verdict.Inject.duplicated then begin
              incr duplicates;
              record (Engine.Obs_duplicate { src = v; dst; edge })
            end;
            List.iter
              (fun (extra, m) ->
                record (Engine.Obs_send { src = v; dst; edge; delay = extra });
                if extra <= 0. then transmit ~port m
                else
                  pending_sends :=
                    insert_by
                      (fun (r, _, _) -> r)
                      (t +. extra, port, m)
                      !pending_sends)
              verdict.Inject.sends
          end
    end
  in
  let set_timer ~after ~tag =
    let h = Hardware_clock.value hw ~now:(now ()) +. after in
    pending_timers := insert_by fst (h, tag) !pending_timers
  in
  let pop_due_timer () =
    match !pending_timers with
    | (h, tag) :: rest when Hardware_clock.value hw ~now:(now ()) >= h ->
        pending_timers := rest;
        incr timers;
        record (Engine.Obs_timer { node = v; tag });
        Some tag
    | _ -> None
  in
  let next_deadline () =
    match !pending_timers with
    | [] -> None
    | (h, _) :: _ ->
        let t = now () in
        if Hardware_clock.value hw ~now:t >= h then Some t
        else Some (Hardware_clock.inverse hw ~h)
  in
  let recv ~deadline =
    flush_sends ();
    let t = now () in
    let timeout =
      let d = deadline -. t in
      match next_send_release () with
      | Some r -> Float.min d (r -. t)
      | None -> d
    in
    match Udp.recv udp ~timeout with
    | None -> None
    | Some (port, msg) ->
        let t = now () in
        let edge = Graph.edge_at_port cfg.graph v port in
        let src = Graph.neighbor_at_port cfg.graph v port in
        let edge_ok =
          match inject with
          | None -> true
          | Some inj -> Inject.edge_up inj ~edge ~now:t
        in
        if !down || not edge_ok then begin
          incr drops_fault;
          record (Engine.Obs_fault_drop { src; dst = v; edge });
          None
        end
        else begin
          incr deliveries;
          record (Engine.Obs_deliver { dst = v; port });
          Some { Transport.port; msg }
        end
  in
  let tr =
    {
      Transport.node = v;
      ports = Graph.degree cfg.graph v;
      mono = now;
      read =
        (fun r ->
          let t = now () in
          r.now <- t;
          r.hw <- Hardware_clock.value hw ~now:t);
      send = do_send;
      set_timer;
      recv;
      pop_due_timer;
      next_deadline;
      rng = Prng.create ~seed:(cfg.seed lxor (0x2545f491 * (v + 1)));
    }
  in
  let ctx =
    { Algorithm.spec = cfg.spec; graph = cfg.graph; logical }
  in
  let make_node = (Registry.get cfg.algo).Algorithm.prepare ctx in
  let driver = Transport.Driver.create tr (make_node v) in
  let samples = ref [] in
  let next_sample = ref 0. in
  let take_sample () =
    let t = now () in
    samples := (t, Logical_clock.value lc ~now:t) :: !samples;
    next_sample := !next_sample +. cfg.sample_period
  in
  let apply_control c =
    match c with
    | Inject.Crash ->
        down := true;
        pending_timers := [];
        pending_sends := [];
        record (Engine.Obs_node_down { node = v })
    | Inject.Recover wipe ->
        down := false;
        record (Engine.Obs_node_up { node = v; wipe });
        if wipe then Transport.Driver.replace_handlers driver (make_node v);
        Transport.Driver.start driver
    | Inject.Jump delta -> Logical_clock.advance lc ~now:(now ()) delta
    | Inject.Rate rate ->
        let t = now () in
        (* The drift schedule pre-applied the whole run; a rate fault can
           only take effect once real time passes the last scheduled
           breakpoint (the simulator has the same constraint, met there
           because control actions run in global time order). *)
        if t >= Hardware_clock.last_breakpoint hw then begin
          Hardware_clock.set_rate hw ~now:t ~rate;
          record (Engine.Obs_rate_change { node = v; rate })
        end
    | Inject.Edge_down e -> record (Engine.Obs_edge_down { edge = e })
    | Inject.Edge_up e -> record (Engine.Obs_edge_up { edge = e })
  in
  Wall.sleep_until cfg.t0;
  started := true;
  Transport.Driver.start driver;
  let rec loop () =
    let t = now () in
    if t < cfg.horizon then begin
      (match inject with
      | Some inj -> List.iter apply_control (Inject.due inj ~now:t)
      | None -> ());
      if now () >= !next_sample then take_sample ();
      let until =
        let u = Float.min cfg.horizon !next_sample in
        let u =
          match next_send_release () with
          | Some r -> Float.min u r
          | None -> u
        in
        match Option.bind inject Inject.next_control with
        | Some c -> Float.min u c
        | None -> u
      in
      if !down then
        (* Crashed: no timers, no deliveries — but keep draining the
           socket so arrivals are recorded as fault drops. *)
        ignore (recv ~deadline:until)
      else ignore (Transport.Driver.step driver ~until);
      loop ()
    end
  in
  loop ();
  take_sample ();
  Udp.close udp;
  {
    node = v;
    events = log;
    samples = List.rev !samples;
    udp = Udp.stats udp;
    timers = !timers;
    deliveries = !deliveries;
    drops_fault = !drops_fault;
    duplicates = !duplicates;
    corruptions = !corruptions;
    lies = !lies;
    jumps = Logical_clock.jump_stats lc;
  }
