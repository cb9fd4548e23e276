module Engine = Gcs_sim.Engine
module Logical_clock = Gcs_clock.Logical_clock
module Prng = Gcs_util.Prng

let make_node (ctx : Algorithm.ctx) v =
  let lc = ctx.logical.(v) in
  let spec = ctx.spec in
  let period = spec.Spec.beacon_period in
  let kappa = spec.Spec.kappa in
  let fast_mult = 1. +. spec.Spec.mu in
  let estimators =
    Offset_estimator.create (Gcs_graph.Graph.degree ctx.graph v)
  in
  let last_accepted = ref [||] in
  let seq = ref 0 in
  let evaluate (api : Message.t Engine.api) =
    Logical_clock.read lc api.clock;
    let n =
      Offset_estimator.scan estimators api.clock
        ~max_age:spec.Spec.staleness_limit
    in
    let offsets = Offset_estimator.offsets estimators in
    let target =
      if Gradient_sync.fast_trigger_n ~kappa offsets n then fast_mult else 1.
    in
    Logical_clock.retarget lc api.clock target
  in
  let probe_all (api : Message.t Engine.api) =
    incr seq;
    for port = 0 to api.ports - 1 do
      api.send ~port (Message.Probe { seq = !seq; h_send = api.clock.hw })
    done
  in
  let arm (api : Message.t Engine.api) ~tag delay =
    api.set_timer ~after:delay ~tag
  in
  {
    Engine.on_init =
      (fun api ->
        last_accepted := Array.make api.ports 0;
        arm api ~tag:Algorithm.timer_beacon (Prng.uniform api.rng ~lo:0. ~hi:period);
        arm api ~tag:Algorithm.timer_recheck
          (Prng.uniform api.rng ~lo:0. ~hi:(period /. 2.)));
    on_message =
      (fun api ~port msg ->
        match msg with
        | Message.Probe { seq; h_send } ->
            let value = Logical_clock.value lc ~now:api.clock.now in
            api.send ~port
              (Message.Probe_reply { seq; h_send; remote_value = value })
        | Message.Probe_reply { seq = reply_seq; h_send; remote_value } ->
            if reply_seq > !last_accepted.(port) then begin
              !last_accepted.(port) <- reply_seq;
              let rtt = api.clock.hw -. h_send in
              (* The neighbor's clock read mid-exchange, brought forward by
                 half the round trip: no delay-distribution knowledge. *)
              Offset_estimator.update estimators api.clock ~port ~remote_value
                ~elapsed_guess:(rtt /. 2.);
              evaluate api
            end
        | Message.Beacon _ | Message.Flood _ | Message.Report _
        | Message.Reset _ ->
            ());
    on_timer =
      (fun api ~tag ->
        if tag = Algorithm.timer_beacon then begin
          probe_all api;
          arm api ~tag:Algorithm.timer_beacon period
        end
        else if tag = Algorithm.timer_recheck then begin
          evaluate api;
          arm api ~tag:Algorithm.timer_recheck (period /. 2.)
        end);
  }

let algorithm = { Algorithm.name = "gradient-rtt"; prepare = make_node }
