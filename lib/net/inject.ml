module Graph = Gcs_graph.Graph
module Fault_plan = Gcs_sim.Fault_plan
module Message = Gcs_core.Message
module Prng = Gcs_util.Prng

type control =
  | Crash
  | Recover of bool
  | Jump of float
  | Rate of float
  | Edge_down of int
  | Edge_up of int

type verdict = {
  fault_drop : bool;
  sends : (float * Message.t) list;
  duplicated : bool;
  corrupted : bool;
  lied : bool;
}

type t = {
  node : int;
  controls : (float * control) array;  (** schedule order *)
  mutable cursor : int;
  toggles : (float * bool) list array;  (** per edge id, time-sorted *)
  dup_w : (float * float * float) list array;  (** from, until, prob *)
  reorder_w : (float * float * float * float) list array;
      (** from, until, prob, extra *)
  corrupt_w : (float * float * float * float) list array;
      (** from, until, prob, magnitude *)
  byz_w : (float * float * Fault_plan.byz_strategy) list;  (** self only *)
  edge_rng : Prng.t array;
  byz_rng : Prng.t;
}

let create ~graph ~node ~seed plan =
  (match Fault_plan.validate plan graph with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Inject: invalid fault plan: " ^ msg));
  let m = Graph.m graph in
  let controls = ref [] in
  let toggles = Array.make m [] in
  let dup_w = Array.make m [] in
  let reorder_w = Array.make m [] in
  let corrupt_w = Array.make m [] in
  let byz_w = ref [] in
  let add_control at c = controls := (at, c) :: !controls in
  let min_endpoint e = fst (Graph.edge_endpoints graph e) in
  let incident e =
    let u, v = Graph.edge_endpoints graph e in
    u = node || v = node
  in
  let add_window arr edges w =
    List.iter
      (fun e -> if incident e then arr.(e) <- arr.(e) @ [ w ])
      (Fault_plan.resolve_edges graph edges)
  in
  List.iter
    (fun ev ->
      match ev with
      | Fault_plan.Link_partition { at; edges } ->
          List.iter
            (fun e ->
              if incident e then begin
                toggles.(e) <- toggles.(e) @ [ (at, false) ];
                if min_endpoint e = node then add_control at (Edge_down e)
              end)
            (Fault_plan.resolve_edges graph edges)
      | Fault_plan.Link_heal { at; edges } ->
          List.iter
            (fun e ->
              if incident e then begin
                toggles.(e) <- toggles.(e) @ [ (at, true) ];
                if min_endpoint e = node then add_control at (Edge_up e)
              end)
            (Fault_plan.resolve_edges graph edges)
      | Fault_plan.Node_crash { at; node = v } ->
          if v = node then add_control at Crash
      | Fault_plan.Node_recover { at; node = v; wipe } ->
          if v = node then add_control at (Recover wipe)
      | Fault_plan.Clock_jump { at; node = v; delta } ->
          if v = node then add_control at (Jump delta)
      | Fault_plan.Clock_rate_fault { at; node = v; rate } ->
          if v = node then add_control at (Rate rate)
      | Fault_plan.Msg_duplicate { from_; until; edges; prob } ->
          add_window dup_w edges (from_, until, prob)
      | Fault_plan.Msg_reorder { from_; until; edges; prob; extra } ->
          add_window reorder_w edges (from_, until, prob, extra)
      | Fault_plan.Msg_corrupt { from_; until; edges; prob; magnitude } ->
          add_window corrupt_w edges (from_, until, prob, magnitude)
      | Fault_plan.Byzantine { from_; until; node = v; strategy } ->
          if v = node then byz_w := !byz_w @ [ (from_, until, strategy) ])
    (Fault_plan.events plan);
  let controls =
    (* The plan is already start-sorted; List.rev restores plan order and
       the stable sort keeps it on time ties. *)
    List.stable_sort
      (fun (a, _) (b, _) -> Float.compare a b)
      (List.rev !controls)
    |> Array.of_list
  in
  {
    node;
    controls;
    cursor = 0;
    toggles;
    dup_w;
    reorder_w;
    corrupt_w;
    byz_w = !byz_w;
    edge_rng =
      Array.init m (fun e ->
          Prng.create ~seed:(seed lxor (0x9e3779b9 * ((node * m) + e + 1))));
    byz_rng = Prng.create ~seed:(seed lxor (0x51ed270b * (node + 1)));
  }

let due t ~now =
  let acc = ref [] in
  while
    t.cursor < Array.length t.controls && fst t.controls.(t.cursor) <= now
  do
    acc := snd t.controls.(t.cursor) :: !acc;
    t.cursor <- t.cursor + 1
  done;
  List.rev !acc

let next_control t =
  if t.cursor < Array.length t.controls then Some (fst t.controls.(t.cursor))
  else None

let edge_up t ~edge ~now =
  List.fold_left
    (fun up (at, state) -> if at <= now then state else up)
    true t.toggles.(edge)

let active3 windows now =
  List.find_map
    (fun (from_, until, x) -> if from_ <= now && now < until then Some x else None)
    windows

let active4 windows now =
  List.find_map
    (fun (from_, until, x, y) ->
      if from_ <= now && now < until then Some (x, y) else None)
    windows

let outgoing t ~now ~edge ~dst msg =
  if not (edge_up t ~edge ~now) then
    { fault_drop = true; sends = []; duplicated = false; corrupted = false;
      lied = false }
  else begin
    let lied = ref false in
    let msg =
      match
        List.find_map
          (fun (from_, until, s) ->
            if from_ <= now && now < until then Some (from_, s) else None)
          t.byz_w
      with
      | None -> msg
      | Some (from_, strategy) -> (
          let delta =
            Fault_plan.lie_delta strategy ~from_ ~now ~src:t.node ~dst
              ~rng:t.byz_rng
          in
          match Message.perturb delta msg with
          | Some m ->
              lied := true;
              m
          | None -> msg)
    in
    let rng = t.edge_rng.(edge) in
    let corrupted = ref false in
    let msg =
      match active4 t.corrupt_w.(edge) now with
      | None -> msg
      | Some (prob, magnitude) ->
          if Prng.float rng 1.0 >= prob then msg
          else begin
            let delta = Prng.uniform rng ~lo:(-.magnitude) ~hi:magnitude in
            match Message.perturb delta msg with
            | Some m ->
                corrupted := true;
                m
            | None -> msg
          end
    in
    let extra_delay () =
      match active4 t.reorder_w.(edge) now with
      | None -> 0.
      | Some (prob, extra) ->
          if Prng.float rng 1.0 < prob then Prng.uniform rng ~lo:0. ~hi:extra
          else 0.
    in
    let duplicated =
      match active3 t.dup_w.(edge) now with
      | None -> false
      | Some prob -> Prng.float rng 1.0 < prob
    in
    let sends =
      let first = (extra_delay (), msg) in
      if duplicated then [ first; (extra_delay (), msg) ] else [ first ]
    in
    { fault_drop = false; sends; duplicated; corrupted = !corrupted;
      lied = !lied }
  end
