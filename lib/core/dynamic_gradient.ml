module Engine = Gcs_sim.Engine
module Logical_clock = Gcs_clock.Logical_clock
module Delay_model = Gcs_sim.Delay_model
module Shortest_path = Gcs_graph.Shortest_path
module Prng = Gcs_util.Prng

let fresh_allowance spec ~diameter = Bounds.gradient_global_upper spec ~diameter

let tighten_rate (spec : Spec.t) =
  let cap = 0.125 *. spec.mu in
  let closing = spec.mu -. (2. *. spec.rho) in
  if closing > 0. then Float.min cap (0.25 *. closing) else cap

(* Shrink an offset estimate toward zero by the port's current allowance:
   a fresh neighbor is invisible to the trigger until it drifts beyond
   what a fresh edge is still entitled to. *)
let[@inline] discount ~allow o =
  if o > allow then o -. allow else if o < -.allow then o +. allow else 0.

let discount_prefix ~allow0 ~tighten ~h_local ~live_since offsets ports n =
  for i = 0 to n - 1 do
    let age = h_local -. live_since.(ports.(i)) in
    let allow = Float.max 0. (allow0 -. (tighten *. age)) in
    offsets.(i) <- discount ~allow offsets.(i)
  done

let make_node ~allow0 ~tighten (ctx : Algorithm.ctx) v =
  let lc = ctx.logical.(v) in
  let spec = ctx.spec in
  let period = spec.beacon_period in
  let kappa = spec.kappa in
  let fast_mult = 1. +. spec.mu in
  let bounds = spec.delay in
  let flight_guess =
    0.5 *. (bounds.Delay_model.d_min +. bounds.Delay_model.d_max)
  in
  let estimators =
    Offset_estimator.create (Gcs_graph.Graph.degree ctx.graph v)
  in
  (* [neg_infinity] = the edge existed at startup, when all clocks began
     synchronized — it is born settled (allowance 0), not fresh. Only an
     edge that (re)forms after a silence longer than the staleness limit
     gets the fresh allowance, with its age restarting at that beacon. *)
  let live_since = ref [||] in
  let last_heard = ref [||] in
  let evaluate (api : Message.t Engine.api) =
    let h = api.hardware () in
    let own_value = Logical_clock.value lc ~now:(ctx.now ()) in
    let n =
      Offset_estimator.scan estimators ~max_age:spec.Spec.staleness_limit
        ~h_local:h ~own_value
    in
    let offsets = Offset_estimator.offsets estimators in
    discount_prefix ~allow0 ~tighten ~h_local:h ~live_since:!live_since
      offsets
      (Offset_estimator.offset_ports estimators)
      n;
    let target =
      if Gradient_sync.fast_trigger_n ~kappa offsets n then fast_mult else 1.
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
        live_since := Array.make api.ports neg_infinity;
        last_heard := Array.make api.ports 0.;
        arm api ~tag:Algorithm.timer_beacon (Prng.uniform api.rng ~lo:0. ~hi:period);
        arm api ~tag:Algorithm.timer_recheck
          (Prng.uniform api.rng ~lo:0. ~hi:(period /. 2.)));
    on_message =
      (fun api ~port msg ->
        match msg with
        | Message.Beacon { value } ->
            let h = api.hardware () in
            (* A gap longer than the staleness limit since the port last
               spoke — counted from process start, so an edge first heard
               from late in the run is fresh too — means the edge has just
               (re)formed: its age restarts now. *)
            if h -. !last_heard.(port) > spec.Spec.staleness_limit then
              !live_since.(port) <- h;
            !last_heard.(port) <- h;
            Offset_estimator.update estimators ~port ~h_local:h
              ~remote_value:value ~elapsed_guess:flight_guess;
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

let algorithm =
  {
    Algorithm.name = "dynamic-gradient";
    prepare =
      (fun ctx ->
        let diameter = Shortest_path.diameter ctx.graph in
        let allow0 = fresh_allowance ctx.spec ~diameter in
        let tighten = tighten_rate ctx.spec in
        make_node ~allow0 ~tighten ctx);
  }
