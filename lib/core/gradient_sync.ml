module Engine = Gcs_sim.Engine
module Logical_clock = Gcs_clock.Logical_clock
module Delay_model = Gcs_sim.Delay_model
module Prng = Gcs_util.Prng

(* Both triggers ask for a level s >= 0 with lead >= l(s) and
   lag <= l(s). The fast trigger has lead = ahead (how far the most-ahead
   neighbor leads us), lag = behind (how far the most-behind neighbor
   trails us) and l(s) = (2s + 1) * kappa, and needs ahead >= kappa; the
   slow one swaps lead and lag and has l(s) = 2s * kappa. The largest
   relevant level is bounded by max offset / kappa, so the loop ends
   quickly in practice. A lag of +inf or NaN meets no level, so the answer
   is false; the loop would never stop there, as its bound is then +inf or
   NaN too. Reads the first [n] entries of [offsets] and allocates
   nothing, so a node can run it on its estimator bank's scratch on every
   beacon. *)
let level_search ~fast ~kappa offsets n =
  let ahead = ref neg_infinity and behind = ref neg_infinity in
  for i = 0 to n - 1 do
    ahead := Float.max !ahead (-.offsets.(i));
    behind := Float.max !behind offsets.(i)
  done;
  let ahead = !ahead and behind = !behind in
  let lead = if fast then ahead else behind in
  let lag = if fast then behind else ahead in
  let odd = if fast then 1 else 0 in
  let limit = if fast then ahead /. kappa else (behind /. kappa) +. 1. in
  let s = ref 0 and hit = ref false in
  if fast && not (ahead >= kappa) then false
  else if not (lag < infinity) then false
  else begin
    while (not !hit) && not (float_of_int !s > limit) do
      let level = float_of_int ((2 * !s) + odd) *. kappa in
      hit := lead >= level && lag <= level;
      incr s
    done;
    !hit
  end

let fast_trigger_n ~kappa offsets n =
  n > 0 && level_search ~fast:true ~kappa offsets n

let slow_trigger_n ~kappa offsets n =
  n = 0 || level_search ~fast:false ~kappa offsets n

let fast_trigger ~kappa ~offsets =
  fast_trigger_n ~kappa offsets (Array.length offsets)

let slow_trigger ~kappa ~offsets =
  slow_trigger_n ~kappa offsets (Array.length offsets)

(* The one beacon node of every estimator-driven variant. Its clock values
   move through the engine's reading and its constants are bound once, so
   a beacon or re-check passes no freshly computed float across a call,
   and [decide] returns a bool. *)
let node ?spare ?port_guess ?(slow = 1.) ?on_init ?on_beacon ~decide
    (ctx : Algorithm.ctx) v =
  let lc = ctx.logical.(v) in
  let spec = ctx.spec in
  let period = spec.beacon_period in
  let half_period = period /. 2. in
  let max_age = spec.Spec.staleness_limit in
  let fast_mult = 1. +. spec.mu in
  let bounds = spec.delay in
  let flight_guess =
    0.5 *. (bounds.Delay_model.d_min +. bounds.Delay_model.d_max)
  in
  let estimators =
    Offset_estimator.create ?spare (Gcs_graph.Graph.degree ctx.graph v)
  in
  let evaluate (api : Message.t Engine.api) =
    let r = api.clock in
    Logical_clock.read lc r;
    let n = Offset_estimator.scan estimators r ~max_age in
    Logical_clock.retarget lc r
      (if
         decide r
           (Offset_estimator.offsets estimators)
           (Offset_estimator.offset_ports estimators)
           n
       then fast_mult
       else slow)
  in
  (* One message for every port: messages are immutable, and the lie and
     tamper hooks return fresh ones. *)
  let broadcast (api : Message.t Engine.api) =
    Logical_clock.read lc api.clock;
    let beacon = Message.Beacon { value = api.clock.logical } in
    for port = 0 to api.ports - 1 do
      api.send ~port beacon
    done
  in
  {
    Engine.on_init =
      (fun api ->
        (match on_init with Some f -> f api | None -> ());
        api.set_timer ~tag:Algorithm.timer_beacon
          ~after:(Prng.uniform api.rng ~lo:0. ~hi:period);
        api.set_timer ~tag:Algorithm.timer_recheck
          ~after:(Prng.uniform api.rng ~lo:0. ~hi:half_period));
    on_message =
      (fun api ~port msg ->
        match msg with
        | Message.Beacon { value } ->
            (match on_beacon with Some f -> f ~port api.clock | None -> ());
            Offset_estimator.update estimators api.clock ~port
              ~remote_value:value
              ~elapsed_guess:
                (match port_guess with
                | Some guess -> guess.(port)
                | None -> flight_guess);
            evaluate api
        | Message.Probe _ | Message.Probe_reply _ | Message.Flood _
        | Message.Report _ | Message.Reset _ ->
            ());
    on_timer =
      (fun api ~tag ->
        if tag = Algorithm.timer_beacon then begin
          broadcast api;
          api.set_timer ~after:period ~tag:Algorithm.timer_beacon
        end
        else if tag = Algorithm.timer_recheck then begin
          evaluate api;
          api.set_timer ~after:half_period ~tag:Algorithm.timer_recheck
        end);
  }

let algorithm =
  {
    Algorithm.name = "gradient";
    prepare =
      (fun ctx ->
        let kappa = ctx.spec.Spec.kappa in
        node ~decide:(fun _ offsets _ n ->
            fast_trigger_n ~kappa offsets n)
          ctx);
  }
