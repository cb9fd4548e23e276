module Engine = Gcs_sim.Engine
module Logical_clock = Gcs_clock.Logical_clock
module Delay_model = Gcs_sim.Delay_model
module Prng = Gcs_util.Prng

type reference = { error : float -> float }

let perfect_reference = { error = (fun _ -> 0.) }

let noisy_reference ~bias ~wander ~period ~phase =
  if period <= 0. then invalid_arg "External_sync: period must be > 0";
  {
    error =
      (fun t -> bias +. (wander *. sin ((2. *. Float.pi *. t /. period) +. phase)));
  }

let query r ~now = now +. r.error now

let make_node ~anchors (ctx : Algorithm.ctx) v =
  let lc = ctx.logical.(v) in
  let spec = ctx.spec in
  let period = spec.Spec.beacon_period in
  let kappa = spec.Spec.kappa in
  let fast_mult = 1. +. spec.Spec.mu in
  (* The zeta-slowdown of the external-synchronization construction: every
     node's default pace is deliberately below real time, so that the
     virtual reference node is never the slowest clock and anchored nodes
     can pull the whole network toward true time through the ordinary fast
     trigger. *)
  let base_mult = Float.max 0.5 (1. -. (spec.Spec.mu /. 2.)) in
  let bounds = spec.Spec.delay in
  let flight_guess =
    0.5 *. (bounds.Delay_model.d_min +. bounds.Delay_model.d_max)
  in
  let anchor = anchors v in
  let estimators =
    let spare = match anchor with None -> 0 | Some _ -> 1 in
    Offset_estimator.create ~spare (Gcs_graph.Graph.degree ctx.graph v)
  in
  let evaluate (api : Message.t Engine.api) =
    let h_local = api.hardware () in
    let own_value = Logical_clock.value lc ~now:(ctx.now ()) in
    let n =
      Offset_estimator.scan estimators ~max_age:spec.Spec.staleness_limit
        ~h_local ~own_value
    in
    let offsets = Offset_estimator.offsets estimators in
    (* The reference clock is one more neighbor, in the spare slot. *)
    let n =
      match anchor with
      | None -> n
      | Some r ->
          let now = ctx.now () in
          offsets.(n) <- Logical_clock.value lc ~now -. query r ~now;
          n + 1
    in
    let target =
      if Gradient_sync.fast_trigger_n ~kappa offsets n then fast_mult
      else base_mult
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
        Logical_clock.set_mult lc ~now:(ctx.now ()) base_mult;
        arm api ~tag:Algorithm.timer_beacon (Prng.uniform api.rng ~lo:0. ~hi:period);
        arm api ~tag:Algorithm.timer_recheck
          (Prng.uniform api.rng ~lo:0. ~hi:(period /. 2.)));
    on_message =
      (fun api ~port msg ->
        match msg with
        | Message.Beacon { value } ->
            Offset_estimator.update estimators ~port
              ~h_local:(api.hardware ()) ~remote_value:value
              ~elapsed_guess:flight_guess;
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

let algorithm ~anchors =
  {
    Algorithm.name = "external-gradient";
    prepare = (fun ctx v -> make_node ~anchors ctx v);
  }
