module Engine = Gcs_sim.Engine
module Shortest_path = Gcs_graph.Shortest_path

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

(* The local hardware time comes in the reading: a float argument would be
   boxed on every call. *)
let discount_prefix ~allow0 ~tighten (r : Gcs_clock.Reading.t) ~live_since
    offsets ports n =
  let h_local = r.hw in
  for i = 0 to n - 1 do
    let age = h_local -. live_since.(ports.(i)) in
    let allow = Float.max 0. (allow0 -. (tighten *. age)) in
    offsets.(i) <- discount ~allow offsets.(i)
  done

let make_node ~allow0 ~tighten (ctx : Algorithm.ctx) v =
  let kappa = ctx.spec.Spec.kappa in
  let staleness = ctx.spec.Spec.staleness_limit in
  (* [neg_infinity] = the edge existed at startup, when all clocks began
     synchronized — it is born settled (allowance 0), not fresh. Only an
     edge that (re)forms after a silence longer than the staleness limit
     gets the fresh allowance, with its age restarting at that beacon.
     Both arrays start afresh on every init, recovery included. *)
  let live_since = ref [||] in
  let last_heard = ref [||] in
  Gradient_sync.node
    ~on_init:(fun api ->
      live_since := Array.make api.Engine.ports neg_infinity;
      last_heard := Array.make api.Engine.ports 0.)
    ~on_beacon:(fun ~port r ->
      (* A gap longer than the staleness limit since the port last spoke —
         counted from process start, so an edge first heard from late in
         the run is fresh too — means the edge has just (re)formed: its
         age restarts now. *)
      if r.hw -. !last_heard.(port) > staleness then
        !live_since.(port) <- r.hw;
      !last_heard.(port) <- r.hw)
    ~decide:(fun r offsets ports n ->
      discount_prefix ~allow0 ~tighten r ~live_since:!live_since offsets
        ports n;
      Gradient_sync.fast_trigger_n ~kappa offsets n)
    ctx v

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
