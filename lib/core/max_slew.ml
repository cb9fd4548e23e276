module Engine = Gcs_sim.Engine
module Logical_clock = Gcs_clock.Logical_clock
module Delay_model = Gcs_sim.Delay_model
module Prng = Gcs_util.Prng

let ahead_of_us ~threshold offsets n =
  let ahead = ref false in
  for i = 0 to n - 1 do
    if -.offsets.(i) > threshold then ahead := true
  done;
  !ahead

let make_node (ctx : Algorithm.ctx) v =
  let lc = ctx.logical.(v) in
  let spec = ctx.spec in
  let period = spec.Spec.beacon_period in
  let threshold = Spec.estimate_error_bound spec in
  let fast_mult = 1. +. spec.Spec.mu in
  let bounds = spec.Spec.delay in
  let flight_guess =
    0.5 *. (bounds.Delay_model.d_min +. bounds.Delay_model.d_max)
  in
  let estimators =
    Offset_estimator.create (Gcs_graph.Graph.degree ctx.graph v)
  in
  let evaluate (api : Message.t Engine.api) =
    let h_local = api.hardware () in
    let own_value = Logical_clock.value lc ~now:(ctx.now ()) in
    let n =
      Offset_estimator.scan estimators ~max_age:spec.Spec.staleness_limit
        ~h_local ~own_value
    in
    let offsets = Offset_estimator.offsets estimators in
    let target = if ahead_of_us ~threshold offsets n then fast_mult else 1. in
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

let algorithm = { Algorithm.name = "max-slew"; prepare = make_node }
