module Pool = Gcs_util.Pool
module Prng = Gcs_util.Prng
module Graph = Gcs_graph.Graph
module Topology = Gcs_graph.Topology
module Fault_plan = Gcs_sim.Fault_plan
module Churn_plan = Gcs_sim.Churn_plan
module Spec = Gcs_core.Spec
module Bounds = Gcs_core.Bounds
module Shortest_path = Gcs_graph.Shortest_path
module Dynamic_gradient = Gcs_core.Dynamic_gradient
module Algorithm = Gcs_core.Algorithm
module Invariant = Gcs_core.Invariant
module Runner = Gcs_core.Runner
module Registry = Gcs_core.Registry
module Search = Gcs_adversary.Search

type checked = {
  result : Runner.result;
  violation : Monitor.violation option;
  events_checked : int;
}

let default_spec ?(mode = `Record) ?skew_bound ?(after = 0.)
    ?(byzantine = []) ?containment_bound ?edge_age spec algo =
  let env = Invariant.expected_envelope spec algo in
  {
    Monitor.rate_lo = env.Invariant.rate_lo;
    rate_hi = env.Invariant.rate_hi;
    check_rate = not env.Invariant.jumps_allowed;
    check_monotonic = true;
    skew_bound;
    after;
    mode;
    byzantine;
    containment_bound;
    edge_age;
  }

(* The age-parameterized bounds the dynamic gradient is checked against,
   derived from the same helpers the algorithm itself plans with: the
   settled floor is the static gradient bound, a fresh edge gets the
   algorithm's full formation allowance on top of it, and both decay at
   the algorithm's own tightening rate — so a conforming dynamic-gradient
   run passes by construction while any algorithm that chases fresh
   neighbors at face value rips through the settled floor on its old
   edges. Windows come back empty; callers fill them from the run's
   compiled churn plan ({!Gcs_sim.Churn_plan.up_windows}). *)
let edge_age_bounds (spec : Spec.t) ~diameter =
  let settled = Bounds.gradient_local_upper spec ~diameter in
  {
    Monitor.fresh_bound =
      Dynamic_gradient.fresh_allowance spec ~diameter +. settled;
    settled_bound = settled;
    tighten_rate = Dynamic_gradient.tighten_rate spec;
    windows = [];
  }

let run ?monitor ?(moves = []) ?(segment_len = 0.) (cfg : Runner.config) =
  let cfg =
    (* Adversary moves need the delay chooser; everything else about the
       config (and hence its store key) is unchanged. *)
    if moves = [] then cfg
    else { cfg with Runner.delay_kind = Runner.Controlled_delays }
  in
  let mspec =
    match monitor with
    | Some s -> s
    | None -> default_spec cfg.Runner.spec cfg.Runner.algo
  in
  let live = Runner.prepare cfg in
  if moves <> [] then Search.install live ~segment_len moves;
  let m = Monitor.attach mspec live in
  let result = Runner.complete live in
  let violation = Monitor.finalize m in
  { result; violation; events_checked = Monitor.events_checked m }

(* ---------------------------------------------------------------- *)
(* Conformance battery                                              *)

type cell = {
  key : Gcs_store.Key.t;
  algo : Algorithm.kind;
  monitor : Monitor.spec;
  violation : Monitor.violation option;
  events_checked : int;
}

(* A benign fault plan drawn deterministically from the cell seed: faults
   under which the rate/monotonicity envelopes genuinely hold (partitions
   heal, crashed nodes recover, tampering never touches the logical
   multiplier's clamp). Clock jump/rate faults are deliberately excluded —
   those *should* violate, and are what the shrinker tests feed in. *)
let benign_plan ~seed ~horizon ~nodes =
  let rng = Prng.create ~seed:(seed lxor 0xFA17) in
  let v = Prng.int rng nodes in
  let q = horizon /. 4. in
  let events =
    match Prng.int rng 5 with
    | 0 ->
        [
          Fault_plan.Link_partition { at = q; edges = Fault_plan.Cut [ v ] };
          Fault_plan.Link_heal { at = 2. *. q; edges = Fault_plan.Cut [ v ] };
        ]
    | 1 ->
        [
          Fault_plan.Node_crash { at = q; node = v };
          Fault_plan.Node_recover
            { at = 2. *. q; node = v; wipe = Prng.bool rng };
        ]
    | 2 ->
        [
          Fault_plan.Msg_duplicate
            { from_ = q; until = 2. *. q; edges = Fault_plan.All_edges;
              prob = 0.5 };
        ]
    | 3 ->
        [
          Fault_plan.Msg_reorder
            { from_ = q; until = 2. *. q; edges = Fault_plan.All_edges;
              prob = 0.3; extra = 2. };
        ]
    | _ ->
        [
          Fault_plan.Msg_corrupt
            { from_ = q; until = 2. *. q; edges = Fault_plan.All_edges;
              prob = 0.2; magnitude = 0.05 };
        ]
  in
  Fault_plan.of_events events

(* A Byzantine fault plan drawn deterministically from the cell seed: [f]
   liars spread around the node space, each lying over the middle half of
   the run with a strategy and magnitude chosen from its own derived
   stream. The magnitudes dwarf every containment bound in use, so a
   surviving battery means the algorithm filtered the lies, not that the
   lies were gentle. *)
let byz_plan ~seed ~horizon ~nodes ~f ~kappa =
  if f < 1 then invalid_arg "Check_run.byz_plan: f must be >= 1";
  if f >= nodes then invalid_arg "Check_run.byz_plan: f must be < nodes";
  let rng = Prng.create ~seed:(seed lxor 0xB12A) in
  let q = horizon /. 4. in
  let mag = 20. *. kappa in
  let stride = nodes / f in
  let offset = Prng.int rng stride in
  let events =
    List.init f (fun i ->
        let node = (offset + (i * stride)) mod nodes in
        let strategy =
          match Prng.int rng 4 with
          | 0 -> Fault_plan.Lie_equivocate mag
          | 1 -> Fault_plan.Lie_constant (-.mag)
          | 2 -> Fault_plan.Lie_drifting (-.mag /. (2. *. q))
          | _ -> Fault_plan.Lie_random mag
        in
        Fault_plan.Byzantine { from_ = q; until = 3. *. q; node; strategy })
  in
  Fault_plan.of_events events

(* The weakened correct-correct guarantee the ft gradient is checked
   against: the filter's clamp window (2f+1)*kappa — where a liar can pin
   the trigger level — plus slack for what honest machinery adds on top:
   estimation error on each of the two estimates involved in a trigger
   decision, and one beacon period of reaction lag at the fast-rate
   differential (bounded by kappa for any sane spec). Calibrated so the
   ft battery passes with margin while plain gradient, whose skew under a
   pinning liar grows to the lie magnitude, crosses it decisively. *)
let containment_bound (spec : Spec.t) ~f =
  (float_of_int ((2 * f) + 1) *. spec.Spec.kappa)
  +. (2. *. Spec.estimate_error_bound spec)
  +. spec.Spec.kappa

let seed_stride = 7919

let battery ?jobs ?(spec = Spec.make ()) ?(algos = Algorithm.all_kinds)
    ?(faults = true) ?(base_seed = 1) ?churn ~topologies ~seeds ~horizon () =
  if seeds < 1 then invalid_arg "Check_run.battery: seeds must be >= 1";
  let cells =
    List.concat_map
      (fun topology ->
        let nodes = Graph.n (Topology.build_for_seed topology ~seed:base_seed) in
        List.concat_map
          (fun algo ->
            List.init seeds (fun i ->
                let seed = base_seed + (i * seed_stride) in
                let base =
                  if faults && i land 1 = 1 then
                    Some (benign_plan ~seed ~horizon ~nodes)
                  else None
                in
                let churned =
                  match churn with
                  | None -> None
                  | Some c ->
                      (* Compile against the cell's own graph: random
                         topologies rebuild per seed inside
                         [config_of_key], and the expansion must match. *)
                      Churn_plan.compile c
                        ~graph:(Topology.build_for_seed topology ~seed)
                        ~seed ~horizon
                in
                let fault_plan =
                  match (base, churned) with
                  | None, p | p, None -> p
                  | Some a, Some b -> Some (Fault_plan.compose a b)
                in
                let key =
                  Runner.store_key ?fault_plan ~spec ~topology ~algo ~horizon
                    ~seed ()
                in
                (key, algo)))
          algos)
      topologies
  in
  let run_cell (key, algo) =
    match Runner.config_of_key key with
    | Error msg -> invalid_arg ("Check_run.battery: " ^ msg)
    | Ok cfg ->
        let monitor =
          match churn with
          | None -> default_spec spec algo
          | Some _ ->
              (* Churned cells are additionally held to the edge-age
                 conformance bound, with formation times read off the
                 cell's own compiled plan. *)
              let diameter = Shortest_path.diameter cfg.Runner.graph in
              let windows =
                match cfg.Runner.fault_plan with
                | None -> []
                | Some p ->
                    Churn_plan.up_windows p ~graph:cfg.Runner.graph ~horizon
              in
              let edge_age =
                { (edge_age_bounds spec ~diameter) with Monitor.windows }
              in
              default_spec ~edge_age spec algo
        in
        let checked = run ~monitor cfg in
        {
          key;
          algo;
          monitor;
          violation = checked.violation;
          events_checked = checked.events_checked;
        }
  in
  Pool.map ?jobs run_cell (Array.of_list cells) |> Array.to_list

let violations cells = List.filter (fun c -> c.violation <> None) cells

(* ---------------------------------------------------------------- *)
(* Containment battery                                              *)

let attack_spec () = Spec.make ~rho:0.05 ~mu:0.15 ~kappa:0.5 ()

let containment_battery ?jobs ?spec
    ?(algos = [ Algorithm.Ft_gradient_sync 1 ]) ?(f = 1) ?(base_seed = 1)
    ~topologies ~seeds ~horizon () =
  if seeds < 1 then
    invalid_arg "Check_run.containment_battery: seeds must be >= 1";
  let spec = match spec with Some s -> s | None -> attack_spec () in
  let cells =
    List.concat_map
      (fun topology ->
        let nodes = Graph.n (Topology.build_for_seed topology ~seed:base_seed) in
        List.concat_map
          (fun algo ->
            List.init seeds (fun i ->
                let seed = base_seed + (i * seed_stride) in
                let fault_plan =
                  byz_plan ~seed ~horizon ~nodes ~f ~kappa:spec.Spec.kappa
                in
                let key =
                  Runner.store_key ~fault_plan ~spec ~topology ~algo ~horizon
                    ~seed ()
                in
                (key, algo, fault_plan)))
          algos)
      topologies
  in
  let run_cell (key, algo, plan) =
    let monitor =
      default_spec
        ~byzantine:(Fault_plan.byzantine_nodes plan)
        ~containment_bound:(containment_bound spec ~f)
        spec algo
    in
    match Runner.config_of_key key with
    | Error msg -> invalid_arg ("Check_run.containment_battery: " ^ msg)
    | Ok cfg ->
        let checked = run ~monitor cfg in
        {
          key;
          algo;
          monitor;
          violation = checked.violation;
          events_checked = checked.events_checked;
        }
  in
  Pool.map ?jobs run_cell (Array.of_list cells) |> Array.to_list
