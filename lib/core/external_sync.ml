module Logical_clock = Gcs_clock.Logical_clock

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
  let kappa = spec.Spec.kappa in
  (* The zeta-slowdown of the external-synchronization construction: every
     node's default pace is deliberately below real time, so that the
     virtual reference node is never the slowest clock and anchored nodes
     can pull the whole network toward true time through the ordinary fast
     trigger. *)
  let base_mult = Float.max 0.5 (1. -. (spec.Spec.mu /. 2.)) in
  let anchor = anchors v in
  Gradient_sync.node
    ~spare:(match anchor with None -> 0 | Some _ -> 1)
    ~slow:base_mult
    ~on_init:(fun api ->
      Logical_clock.set_mult lc ~now:api.Gcs_sim.Engine.clock.now base_mult)
    ~decide:(fun clock offsets _ n ->
      match anchor with
      | None -> Gradient_sync.fast_trigger_n ~kappa offsets n
      | Some r ->
          (* The reference clock is one more neighbor, in the spare slot;
             the node's own value is in the reading. *)
          offsets.(n) <- clock.logical -. query r ~now:clock.now;
          Gradient_sync.fast_trigger_n ~kappa offsets (n + 1))
    ctx v

let algorithm ~anchors =
  { Algorithm.name = "external-gradient"; prepare = make_node ~anchors }
