module Delay_model = Gcs_sim.Delay_model
module Graph = Gcs_graph.Graph

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
  let spec = ctx.spec in
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
  Gradient_sync.node ~port_guess
    ~decide:(fun _ offsets ports n ->
      fast_trigger_ports ~port_kappa ~ports offsets n)
    ctx v

let algorithm ~edge_bounds =
  {
    Algorithm.name = "gradient-hetero";
    prepare = make_node ~edge_bounds;
  }
