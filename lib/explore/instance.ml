module Spec = Gcs_core.Spec
module Algorithm = Gcs_core.Algorithm
module Runner = Gcs_core.Runner
module Topology = Gcs_graph.Topology
module Graph = Gcs_graph.Graph
module Fault_plan = Gcs_sim.Fault_plan
module Monitor = Gcs_check.Monitor
module Check_run = Gcs_check.Check_run

type t = {
  spec : Spec.t;
  topology : Topology.spec;
  algo : Algorithm.kind;
  seed : int;
  segment_len : float;
  depth : int;
  alphabet : Choice.t list;
  fault_plan : Fault_plan.t option;
  monitor : Monitor.spec;
}

let max_nodes = 6

let dedup alphabet =
  List.fold_left
    (fun acc m -> if List.mem m acc then acc else acc @ [ m ])
    [] alphabet

let make ?(spec = Spec.make ()) ?(topology = Topology.Ring 3)
    ?(algo = Algorithm.Gradient_sync) ?(seed = 1) ?(segment_len = 8.)
    ?(depth = 3) ?(alphabet = Choice.extremes) ?fault_plan ?monitor () =
  if depth < 1 then invalid_arg "Instance.make: depth must be >= 1";
  if segment_len <= 0. then
    invalid_arg "Instance.make: segment_len must be > 0";
  let alphabet = dedup alphabet in
  if alphabet = [] then invalid_arg "Instance.make: alphabet must be non-empty";
  (* The graph every run [key] names is built on. *)
  let graph = Topology.build_for_seed topology ~seed in
  let n = Graph.n graph in
  if n < 2 || n > max_nodes then
    invalid_arg
      (Printf.sprintf
         "Instance.make: exhaustive exploration needs 2..%d nodes (topology \
          %s has %d)"
         max_nodes (Topology.spec_name topology) n);
  Option.iter
    (fun plan ->
      match Fault_plan.validate plan graph with
      | Ok () -> ()
      | Error msg -> invalid_arg ("Instance.make: fault plan: " ^ msg))
    fault_plan;
  let monitor =
    match monitor with
    | Some m -> m
    | None -> Check_run.default_spec ~mode:`Abort spec algo
  in
  { spec; topology; algo; seed; segment_len; depth; alphabet; fault_plan;
    monitor }

let nodes t = Graph.n (Topology.build_for_seed t.topology ~seed:t.seed)
let horizon t ~depth = float_of_int depth *. t.segment_len

let key t ~depth =
  Runner.store_key ~drift:"perfect" ?fault_plan:t.fault_plan ~spec:t.spec
    ~topology:t.topology ~algo:t.algo
    ~horizon:(horizon t ~depth)
    ~seed:t.seed ()

let pow base e =
  let rec go acc e = if e = 0 then acc else go (acc * base) (e - 1) in
  go 1 e

let executions t = pow (List.length t.alphabet) t.depth

let prefixes t =
  let k = List.length t.alphabet in
  let rec go acc d = if d = 0 then acc else go (acc + pow k d) (d - 1) in
  go 0 t.depth
