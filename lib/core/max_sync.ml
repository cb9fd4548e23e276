module Engine = Gcs_sim.Engine
module Logical_clock = Gcs_clock.Logical_clock
module Delay_model = Gcs_sim.Delay_model
module Prng = Gcs_util.Prng

let make_node (ctx : Algorithm.ctx) v =
  let lc = ctx.logical.(v) in
  let period = ctx.spec.beacon_period in
  let d_min = ctx.spec.delay.Delay_model.d_min in
  let broadcast (api : Message.t Engine.api) =
    let value = Logical_clock.value lc ~now:api.clock.now in
    for port = 0 to api.ports - 1 do
      api.send ~port (Message.Beacon { value })
    done
  in
  let arm (api : Message.t Engine.api) delay =
    api.set_timer ~after:delay ~tag:Algorithm.timer_beacon
  in
  {
    Engine.on_init =
      (fun api ->
        (* Jitter the first beacon so nodes do not fire in lockstep. *)
        arm api (Prng.uniform api.rng ~lo:0. ~hi:period));
    on_message =
      (fun api ~port:_ msg ->
        match msg with
        | Message.Beacon { value } ->
            let now = api.clock.now in
            let candidate = value +. d_min in
            if candidate > Logical_clock.value lc ~now then
              Logical_clock.jump_to lc ~now candidate
        | Message.Probe _ | Message.Probe_reply _ | Message.Flood _
        | Message.Report _ | Message.Reset _ ->
            ());
    on_timer =
      (fun api ~tag ->
        if tag = Algorithm.timer_beacon then begin
          broadcast api;
          arm api period
        end);
  }

let algorithm = { Algorithm.name = "max"; prepare = make_node }
