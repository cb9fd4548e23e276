module Topology = Gcs_graph.Topology
module Fault_plan = Gcs_sim.Fault_plan

let current_schema_version = 2

type t = {
  schema_version : int;
  rho : float;
  mu : float;
  d_min : float;
  d_max : float;
  beacon_period : float;
  kappa : float;
  staleness_limit : float;
  topology : Topology.spec;
  algo : string;
  drift : string;
  loss : float;
  horizon : float;
  sample_period : float;
  warmup : float;
  seed : int;
  fault_plan : Fault_plan.t option;
}

(* Canonical float text: %.17g round-trips every finite float exactly
   through float_of_string, so equal floats always render identically. *)
let flt = Gcs_util.Table.fmt_17g

let canon_edge_spec = function
  | Fault_plan.All_edges -> Fault_plan.All_edges
  | Fault_plan.Edges pairs ->
      let orient (u, v) = if u <= v then (u, v) else (v, u) in
      Fault_plan.Edges (List.sort_uniq compare (List.map orient pairs))
  | Fault_plan.Cut nodes -> Fault_plan.Cut (List.sort_uniq compare nodes)

let canon_event (e : Fault_plan.event) : Fault_plan.event =
  match e with
  | Link_partition { at; edges } ->
      Link_partition { at; edges = canon_edge_spec edges }
  | Link_heal { at; edges } -> Link_heal { at; edges = canon_edge_spec edges }
  | Node_crash _ | Node_recover _ | Clock_jump _ | Clock_rate_fault _
  | Byzantine _ ->
      e
  | Msg_duplicate r -> Msg_duplicate { r with edges = canon_edge_spec r.edges }
  | Msg_reorder r -> Msg_reorder { r with edges = canon_edge_spec r.edges }
  | Msg_corrupt r -> Msg_corrupt { r with edges = canon_edge_spec r.edges }

let canonical_plan p =
  Fault_plan.of_events (List.map canon_event (Fault_plan.events p))

let make ?(schema_version = current_schema_version) ?(drift = "random")
    ?(loss = 0.) ?fault_plan ~rho ~mu ~d_min ~d_max ~beacon_period ~kappa
    ~staleness_limit ~topology ~algo ~horizon ~sample_period ~warmup ~seed () =
  {
    schema_version;
    rho;
    mu;
    d_min;
    d_max;
    beacon_period;
    kappa;
    staleness_limit;
    topology;
    algo;
    drift;
    loss;
    horizon;
    sample_period;
    warmup;
    seed;
    fault_plan = Option.map canonical_plan fault_plan;
  }

let magic = "gcs.store:key:1"

let encode t =
  let b = Buffer.create 256 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  line "%s" magic;
  line "schema=%d" t.schema_version;
  line "rho=%s" (flt t.rho);
  line "mu=%s" (flt t.mu);
  line "d_min=%s" (flt t.d_min);
  line "d_max=%s" (flt t.d_max);
  line "beacon_period=%s" (flt t.beacon_period);
  line "kappa=%s" (flt t.kappa);
  line "staleness_limit=%s" (flt t.staleness_limit);
  line "topology=%s" (Topology.spec_name t.topology);
  line "algo=%s" t.algo;
  line "drift=%s" t.drift;
  line "loss=%s" (flt t.loss);
  line "horizon=%s" (flt t.horizon);
  line "sample_period=%s" (flt t.sample_period);
  line "warmup=%s" (flt t.warmup);
  line "seed=%d" t.seed;
  (match t.fault_plan with
  | None -> ()
  | Some p -> line "plan=%s" (Fault_plan.to_string p));
  Buffer.contents b

exception Bad of string

let decode s =
  try
    let lines =
      match String.split_on_char '\n' s with
      | hd :: rest when String.equal hd magic ->
          (* encode emits a trailing newline, so the last fragment is "". *)
          List.filter (fun l -> l <> "") rest
      | hd :: _ -> raise (Bad (Printf.sprintf "bad magic %S" hd))
      | [] -> raise (Bad "empty input")
    in
    let remaining = ref lines in
    let field name =
      match !remaining with
      | [] -> raise (Bad (Printf.sprintf "missing field %s" name))
      | l :: rest -> (
          match String.index_opt l '=' with
          | None -> raise (Bad (Printf.sprintf "malformed line %S" l))
          | Some i ->
              let k = String.sub l 0 i in
              if k <> name then
                raise (Bad (Printf.sprintf "expected field %s, got %s" name k));
              remaining := rest;
              String.sub l (i + 1) (String.length l - i - 1))
    in
    let fltf name =
      let v = field name in
      match float_of_string_opt v with
      | Some f -> f
      | None -> raise (Bad (Printf.sprintf "field %s: bad float %S" name v))
    in
    let intf name =
      let v = field name in
      match int_of_string_opt v with
      | Some i -> i
      | None -> raise (Bad (Printf.sprintf "field %s: bad int %S" name v))
    in
    let schema_version = intf "schema" in
    let rho = fltf "rho" in
    let mu = fltf "mu" in
    let d_min = fltf "d_min" in
    let d_max = fltf "d_max" in
    let beacon_period = fltf "beacon_period" in
    let kappa = fltf "kappa" in
    let staleness_limit = fltf "staleness_limit" in
    let topology =
      let v = field "topology" in
      match Topology.spec_of_string v with
      | Ok t -> t
      | Error e -> raise (Bad (Printf.sprintf "field topology: %s" e))
    in
    let algo = field "algo" in
    let drift = field "drift" in
    let loss = fltf "loss" in
    let horizon = fltf "horizon" in
    let sample_period = fltf "sample_period" in
    let warmup = fltf "warmup" in
    let seed = intf "seed" in
    let fault_plan =
      match !remaining with
      | [] -> None
      | _ -> (
          let v = field "plan" in
          match Fault_plan.of_string v with
          | Ok p -> Some p
          | Error e -> raise (Bad (Printf.sprintf "field plan: %s" e)))
    in
    (match !remaining with
    | [] -> ()
    | l :: _ -> raise (Bad (Printf.sprintf "trailing line %S" l)));
    Ok
      (make ~schema_version ~drift ~loss ?fault_plan ~rho ~mu ~d_min ~d_max
         ~beacon_period ~kappa ~staleness_limit ~topology ~algo ~horizon
         ~sample_period ~warmup ~seed ())
  with Bad msg -> Error msg

let hash t = Digest.to_hex (Digest.string (encode t))
