module Engine = Gcs_sim.Engine
module Logical_clock = Gcs_clock.Logical_clock
module Delay_model = Gcs_sim.Delay_model
module Graph = Gcs_graph.Graph
module Prng = Gcs_util.Prng

(* Allocation-free kernel: the estimate [offsets.(i)] crossed the edge at
   port [ports.(i)], whose quantum is [port_kappa.(ports.(i))]. *)
let fast_trigger_ports ~port_kappa ~ports offsets n =
  (* Largest level at which some neighbor can still be "ahead enough"; a
     neighbor must be ahead by at least its own kappa for level 0 to be
     worth checking at all. *)
  let max_level = ref 0 and leader = ref false in
  for i = 0 to n - 1 do
    let k = port_kappa.(ports.(i)) in
    let ahead = -.offsets.(i) in
    if ahead >= k then begin
      leader := true;
      let s = int_of_float ((ahead /. k) -. 1.) / 2 in
      if s > !max_level then max_level := s
    end
  done;
  let s = ref 0 and hit = ref false in
  while !leader && (not !hit) && !s <= !max_level do
    let m = float_of_int ((2 * !s) + 1) in
    let some_ahead = ref false and none_behind = ref true in
    for i = 0 to n - 1 do
      let level = m *. port_kappa.(ports.(i)) in
      if -.offsets.(i) >= level then some_ahead := true;
      if offsets.(i) > level then none_behind := false
    done;
    hit := !some_ahead && !none_behind;
    incr s
  done;
  !hit

let fast_trigger_hetero ~kappas ~offsets =
  let n = Array.length offsets in
  assert (n = 0 || Array.length kappas = n);
  fast_trigger_ports ~port_kappa:kappas ~ports:(Array.init n Fun.id) offsets n

let make_node ~edge_bounds (ctx : Algorithm.ctx) v =
  let lc = ctx.logical.(v) in
  let spec = ctx.spec in
  let period = spec.Spec.beacon_period in
  let fast_mult = 1. +. spec.Spec.mu in
  let ports = Graph.degree ctx.graph v in
  let port_bounds =
    Array.init ports (fun p -> edge_bounds (Graph.edge_at_port ctx.graph v p))
  in
  let port_kappa =
    Array.map
      (fun b ->
        let u = Delay_model.uncertainty b in
        let k =
          Spec.default_kappa ~u ~rho:spec.Spec.rho
            ~beacon_period:spec.Spec.beacon_period
        in
        if k > 0. then k else 1e-6)
      port_bounds
  in
  let port_guess =
    Array.map
      (fun b -> 0.5 *. (b.Delay_model.d_min +. b.Delay_model.d_max))
      port_bounds
  in
  let estimators = Offset_estimator.create ports in
  let evaluate (api : Message.t Engine.api) =
    let h_local = api.hardware () in
    let own_value = Logical_clock.value lc ~now:(ctx.now ()) in
    let n =
      Offset_estimator.scan estimators ~max_age:spec.Spec.staleness_limit
        ~h_local ~own_value
    in
    let target =
      if
        fast_trigger_ports ~port_kappa
          ~ports:(Offset_estimator.offset_ports estimators)
          (Offset_estimator.offsets estimators)
          n
      then fast_mult
      else 1.
    in
    if Logical_clock.mult lc <> target then
      Logical_clock.set_mult lc ~now:(ctx.now ()) target
  in
  let broadcast (api : Message.t Engine.api) =
    let value = Logical_clock.value lc ~now:(ctx.now ()) in
    for port = 0 to api.ports - 1 do
      api.send ~port (Message.Beacon { value })
    done
  in
  let arm (api : Message.t Engine.api) ~tag delay =
    api.set_timer ~h:(api.hardware () +. delay) ~tag
  in
  {
    Engine.on_init =
      (fun api ->
        arm api ~tag:Algorithm.timer_beacon (Prng.uniform api.rng ~lo:0. ~hi:period);
        arm api ~tag:Algorithm.timer_recheck
          (Prng.uniform api.rng ~lo:0. ~hi:(period /. 2.)));
    on_message =
      (fun api ~port msg ->
        match msg with
        | Message.Beacon { value } ->
            Offset_estimator.update estimators ~port
              ~h_local:(api.hardware ()) ~remote_value:value
              ~elapsed_guess:port_guess.(port);
            evaluate api
        | Message.Probe _ | Message.Probe_reply _ | Message.Flood _
        | Message.Report _ | Message.Reset _ ->
            ());
    on_timer =
      (fun api ~tag ->
        if tag = Algorithm.timer_beacon then begin
          broadcast api;
          arm api ~tag:Algorithm.timer_beacon period
        end
        else if tag = Algorithm.timer_recheck then begin
          evaluate api;
          arm api ~tag:Algorithm.timer_recheck (period /. 2.)
        end);
  }

let algorithm ~edge_bounds =
  {
    Algorithm.name = "gradient-hetero";
    prepare = (fun ctx v -> make_node ~edge_bounds ctx v);
  }
