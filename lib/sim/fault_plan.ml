module Graph = Gcs_graph.Graph

type edge_spec =
  | All_edges
  | Edges of (int * int) list
  | Cut of int list

type event =
  | Link_partition of { at : float; edges : edge_spec }
  | Link_heal of { at : float; edges : edge_spec }
  | Node_crash of { at : float; node : int }
  | Node_recover of { at : float; node : int; wipe : bool }
  | Msg_duplicate of {
      from_ : float;
      until : float;
      edges : edge_spec;
      prob : float;
    }
  | Msg_reorder of {
      from_ : float;
      until : float;
      edges : edge_spec;
      prob : float;
      extra : float;
    }
  | Msg_corrupt of {
      from_ : float;
      until : float;
      edges : edge_spec;
      prob : float;
      magnitude : float;
    }
  | Clock_jump of { at : float; node : int; delta : float }
  | Clock_rate_fault of { at : float; node : int; rate : float }
  | Byzantine of {
      from_ : float;
      until : float;
      node : int;
      strategy : byz_strategy;
    }

and byz_strategy =
  | Lie_constant of float
  | Lie_drifting of float
  | Lie_random of float
  | Lie_equivocate of float

type t = event list

let empty = []
let events t = t

let event_start = function
  | Link_partition { at; _ }
  | Link_heal { at; _ }
  | Node_crash { at; _ }
  | Node_recover { at; _ }
  | Clock_jump { at; _ }
  | Clock_rate_fault { at; _ } ->
      at
  | Msg_duplicate { from_; _ } | Msg_reorder { from_; _ }
  | Msg_corrupt { from_; _ }
  | Byzantine { from_; _ } ->
      from_

let of_events evs =
  List.stable_sort (fun a b -> Float.compare (event_start a) (event_start b)) evs

let compose a b = of_events (a @ b)

(* Rendering *)

(* Exact: a plan's text is part of its store key, so it must rebuild the
   same plan. *)
let f = Gcs_util.Table.fmt_round_trip

let edge_spec_to_string = function
  | All_edges -> "all"
  | Edges pairs ->
      "edges="
      ^ String.concat ","
          (List.map (fun (u, v) -> Printf.sprintf "%d-%d" u v) pairs)
  | Cut nodes ->
      "cut=" ^ String.concat "," (List.map string_of_int nodes)

let event_to_string = function
  | Link_partition { at; edges } ->
      Printf.sprintf "partition@%s:%s" (f at) (edge_spec_to_string edges)
  | Link_heal { at; edges } ->
      Printf.sprintf "heal@%s:%s" (f at) (edge_spec_to_string edges)
  | Node_crash { at; node } -> Printf.sprintf "crash@%s:node=%d" (f at) node
  | Node_recover { at; node; wipe } ->
      Printf.sprintf "recover@%s:node=%d%s" (f at) node
        (if wipe then ":wipe" else "")
  | Msg_duplicate { from_; until; edges; prob } ->
      Printf.sprintf "dup@%s..%s:p=%s%s" (f from_) (f until) (f prob)
        (match edges with
        | All_edges -> ""
        | e -> ":" ^ edge_spec_to_string e)
  | Msg_reorder { from_; until; edges; prob; extra } ->
      Printf.sprintf "reorder@%s..%s:p=%s:extra=%s%s" (f from_) (f until)
        (f prob) (f extra)
        (match edges with
        | All_edges -> ""
        | e -> ":" ^ edge_spec_to_string e)
  | Msg_corrupt { from_; until; edges; prob; magnitude } ->
      Printf.sprintf "corrupt@%s..%s:p=%s:mag=%s%s" (f from_) (f until)
        (f prob) (f magnitude)
        (match edges with
        | All_edges -> ""
        | e -> ":" ^ edge_spec_to_string e)
  | Clock_jump { at; node; delta } ->
      Printf.sprintf "jump@%s:node=%d:delta=%s" (f at) node (f delta)
  | Clock_rate_fault { at; node; rate } ->
      Printf.sprintf "rate@%s:node=%d:rate=%s" (f at) node (f rate)
  | Byzantine { from_; until; node; strategy } ->
      let strat =
        match strategy with
        | Lie_constant off -> Printf.sprintf "off=%s" (f off)
        | Lie_drifting rate -> Printf.sprintf "rate=%s" (f rate)
        | Lie_random mag -> Printf.sprintf "mag=%s" (f mag)
        | Lie_equivocate mag -> Printf.sprintf "equiv=%s" (f mag)
      in
      Printf.sprintf "byz@%s..%s:node=%d:%s" (f from_) (f until) node strat

let to_string t = String.concat ";" (List.map event_to_string t)

(* Parsing *)

let ( let* ) = Result.bind

let err fmt = Printf.ksprintf (fun s -> Error s) fmt

let parse_float what s =
  match float_of_string_opt (String.trim s) with
  | Some x -> Ok x
  | None -> err "%s: expected a number, got %S" what s

let parse_int what s =
  match int_of_string_opt (String.trim s) with
  | Some x -> Ok x
  | None -> err "%s: expected an integer, got %S" what s

(* "T1..T2": a float may contain a single '.', so look for the first ".."
   pair as the separator. *)
let parse_time_range s =
  let rec find j =
    if j + 1 >= String.length s then None
    else if s.[j] = '.' && s.[j + 1] = '.' then Some j
    else find (j + 1)
  in
  match find 0 with
  | Some j ->
      let* a = parse_float "window start" (String.sub s 0 j) in
      let* b =
        parse_float "window end"
          (String.sub s (j + 2) (String.length s - j - 2))
      in
      Ok (a, b)
  | None -> err "expected T1..T2, got %S" s

let parse_edge_spec field =
  if field = "all" then Ok All_edges
  else
    match String.index_opt field '=' with
    | None -> err "expected an edge set (all | edges=U-V,... | cut=V,...), got %S" field
    | Some i -> (
        let key = String.sub field 0 i in
        let v = String.sub field (i + 1) (String.length field - i - 1) in
        let items = String.split_on_char ',' v in
        match key with
        | "edges" ->
            let* pairs =
              List.fold_left
                (fun acc item ->
                  let* acc = acc in
                  match String.split_on_char '-' (String.trim item) with
                  | [ a; b ] ->
                      let* u = parse_int "edge endpoint" a in
                      let* w = parse_int "edge endpoint" b in
                      Ok ((u, w) :: acc)
                  | _ -> err "expected U-V, got %S" item)
                (Ok []) items
            in
            Ok (Edges (List.rev pairs))
        | "cut" ->
            let* nodes =
              List.fold_left
                (fun acc item ->
                  let* acc = acc in
                  let* v = parse_int "cut node" item in
                  Ok (v :: acc))
                (Ok []) items
            in
            Ok (Cut (List.rev nodes))
        | k -> err "unknown edge set kind %S" k)

(* Fields are the ':'-separated chunks after "kind@time". Look a key=value
   field up, or detect a bare flag. *)
let find_kv fields key =
  List.find_map
    (fun field ->
      match String.index_opt field '=' with
      | Some i when String.sub field 0 i = key ->
          Some (String.sub field (i + 1) (String.length field - i - 1))
      | _ -> None)
    fields

let require_kv what fields key =
  match find_kv fields key with
  | Some v -> Ok v
  | None -> err "%s: missing %s=..." what key

let edge_spec_of_fields fields =
  match
    List.find_opt
      (fun field ->
        field = "all"
        || String.length field > 6 && String.sub field 0 6 = "edges="
        || String.length field > 4 && String.sub field 0 4 = "cut=")
      fields
  with
  | Some field -> Result.map Option.some (parse_edge_spec field)
  | None -> Ok None

let parse_event s =
  let s = String.trim s in
  match String.index_opt s '@' with
  | None -> err "event %S: expected KIND@TIME[:...]" s
  | Some i -> (
      let kind = String.sub s 0 i in
      let rest = String.sub s (i + 1) (String.length s - i - 1) in
      match String.split_on_char ':' rest with
      | [] -> err "event %S: missing time" s
      | time_field :: fields -> (
          match kind with
          | "partition" | "heal" ->
              let* at = parse_float (kind ^ " time") time_field in
              let* edges =
                match fields with
                | [ field ] -> parse_edge_spec field
                | [] -> err "%s: missing edge set" kind
                | _ -> err "%s: expected exactly one edge set" kind
              in
              Ok
                (if kind = "partition" then Link_partition { at; edges }
                 else Link_heal { at; edges })
          | "crash" ->
              let* at = parse_float "crash time" time_field in
              let* node = Result.bind (require_kv "crash" fields "node")
                            (parse_int "crash node") in
              Ok (Node_crash { at; node })
          | "recover" ->
              let* at = parse_float "recover time" time_field in
              let* node = Result.bind (require_kv "recover" fields "node")
                            (parse_int "recover node") in
              let wipe = List.mem "wipe" fields in
              Ok (Node_recover { at; node; wipe })
          | "dup" ->
              let* from_, until = parse_time_range time_field in
              let* prob = Result.bind (require_kv "dup" fields "p")
                            (parse_float "dup p") in
              let* edges = edge_spec_of_fields fields in
              Ok
                (Msg_duplicate
                   {
                     from_;
                     until;
                     edges = Option.value edges ~default:All_edges;
                     prob;
                   })
          | "reorder" ->
              let* from_, until = parse_time_range time_field in
              let* prob = Result.bind (require_kv "reorder" fields "p")
                            (parse_float "reorder p") in
              let* extra = Result.bind (require_kv "reorder" fields "extra")
                             (parse_float "reorder extra") in
              let* edges = edge_spec_of_fields fields in
              Ok
                (Msg_reorder
                   {
                     from_;
                     until;
                     edges = Option.value edges ~default:All_edges;
                     prob;
                     extra;
                   })
          | "corrupt" ->
              let* from_, until = parse_time_range time_field in
              let* prob = Result.bind (require_kv "corrupt" fields "p")
                            (parse_float "corrupt p") in
              let* magnitude = Result.bind (require_kv "corrupt" fields "mag")
                                 (parse_float "corrupt mag") in
              let* edges = edge_spec_of_fields fields in
              Ok
                (Msg_corrupt
                   {
                     from_;
                     until;
                     edges = Option.value edges ~default:All_edges;
                     prob;
                     magnitude;
                   })
          | "jump" ->
              let* at = parse_float "jump time" time_field in
              let* node = Result.bind (require_kv "jump" fields "node")
                            (parse_int "jump node") in
              let* delta = Result.bind (require_kv "jump" fields "delta")
                             (parse_float "jump delta") in
              Ok (Clock_jump { at; node; delta })
          | "rate" ->
              let* at = parse_float "rate time" time_field in
              let* node = Result.bind (require_kv "rate" fields "node")
                            (parse_int "rate node") in
              let* rate = Result.bind (require_kv "rate" fields "rate")
                            (parse_float "rate value") in
              Ok (Clock_rate_fault { at; node; rate })
          | "byz" ->
              let* from_, until = parse_time_range time_field in
              let* node = Result.bind (require_kv "byz" fields "node")
                            (parse_int "byz node") in
              let strat key mk =
                Option.map
                  (fun v -> Result.map mk (parse_float ("byz " ^ key) v))
                  (find_kv fields key)
              in
              let* strategy =
                match
                  List.filter_map Fun.id
                    [
                      strat "off" (fun x -> Lie_constant x);
                      strat "rate" (fun x -> Lie_drifting x);
                      strat "mag" (fun x -> Lie_random x);
                      strat "equiv" (fun x -> Lie_equivocate x);
                    ]
                with
                | [ s ] -> s
                | [] ->
                    err
                      "byz: missing a strategy (one of off=X, rate=R, mag=M, \
                       equiv=M)"
                | _ -> err "byz: expected exactly one strategy field"
              in
              Ok (Byzantine { from_; until; node; strategy })
          | k -> err "unknown fault kind %S" k))

let of_string s =
  let chunks =
    List.filter
      (fun c -> String.trim c <> "")
      (String.split_on_char ';' s)
  in
  if chunks = [] then err "empty fault plan"
  else
    let* evs =
      List.fold_left
        (fun acc chunk ->
          let* acc = acc in
          let* ev = parse_event chunk in
          Ok (ev :: acc))
        (Ok []) chunks
    in
    Ok (of_events (List.rev evs))

(* Validation and resolution *)

let resolve_edges g = function
  | All_edges -> List.init (Graph.m g) Fun.id
  | Edges pairs ->
      List.sort_uniq compare
        (List.map
           (fun (u, v) ->
             if not (Graph.mem_edge g u v) then
               invalid_arg
                 (Printf.sprintf "Fault_plan: %d-%d is not an edge" u v)
             else Graph.edge_at_port g u (Graph.port_of_neighbor g u v))
           pairs)
  | Cut nodes ->
      let inside = Array.make (Graph.n g) false in
      List.iter
        (fun v ->
          if v < 0 || v >= Graph.n g then
            invalid_arg
              (Printf.sprintf "Fault_plan: cut node %d out of range" v);
          inside.(v) <- true)
        nodes;
      List.sort_uniq compare
        (Graph.fold_edges
           (fun e u v acc -> if inside.(u) <> inside.(v) then e :: acc else acc)
           g [])

let validate t g =
  let n = Graph.n g in
  let check_node what v =
    if v < 0 || v >= n then err "%s: node %d out of range [0, %d)" what v n
    else Ok ()
  in
  let check_time what at =
    if at < 0. || not (Float.is_finite at) then
      err "%s: time %g must be finite and >= 0" what at
    else Ok ()
  in
  let check_window what from_ until =
    let* () = check_time what from_ in
    if until < from_ then err "%s: window %g..%g is backwards" what from_ until
    else Ok ()
  in
  let check_prob what p =
    if p < 0. || p > 1. then err "%s: probability %g outside [0, 1]" what p
    else Ok ()
  in
  let check_edges what = function
    | All_edges -> Ok ()
    | Edges pairs ->
        List.fold_left
          (fun acc (u, v) ->
            let* () = acc in
            let* () = check_node what u in
            let* () = check_node what v in
            if not (Graph.mem_edge g u v) then
              err "%s: %d-%d is not an edge" what u v
            else Ok ())
          (Ok ()) pairs
    | Cut nodes ->
        List.fold_left
          (fun acc v ->
            let* () = acc in
            check_node what v)
          (Ok ()) nodes
  in
  let per_event =
  List.fold_left
    (fun acc ev ->
      let* () = acc in
      match ev with
      | Link_partition { at; edges } ->
          let* () = check_time "partition" at in
          check_edges "partition" edges
      | Link_heal { at; edges } ->
          let* () = check_time "heal" at in
          check_edges "heal" edges
      | Node_crash { at; node } ->
          let* () = check_time "crash" at in
          check_node "crash" node
      | Node_recover { at; node; _ } ->
          let* () = check_time "recover" at in
          check_node "recover" node
      | Msg_duplicate { from_; until; edges; prob } ->
          let* () = check_window "dup" from_ until in
          let* () = check_prob "dup" prob in
          check_edges "dup" edges
      | Msg_reorder { from_; until; edges; prob; extra } ->
          let* () = check_window "reorder" from_ until in
          let* () = check_prob "reorder" prob in
          let* () =
            if extra < 0. then err "reorder: extra %g must be >= 0" extra
            else Ok ()
          in
          check_edges "reorder" edges
      | Msg_corrupt { from_; until; edges; prob; magnitude } ->
          let* () = check_window "corrupt" from_ until in
          let* () = check_prob "corrupt" prob in
          let* () =
            if magnitude < 0. then
              err "corrupt: mag %g must be >= 0" magnitude
            else Ok ()
          in
          check_edges "corrupt" edges
      | Clock_jump { at; node; delta } ->
          let* () = check_time "jump" at in
          let* () = check_node "jump" node in
          if not (Float.is_finite delta) then
            err "jump: delta must be finite"
          else Ok ()
      | Clock_rate_fault { at; node; rate } ->
          let* () = check_time "rate" at in
          let* () = check_node "rate" node in
          if rate <= 0. || not (Float.is_finite rate) then
            err "rate: rate %g must be finite and > 0" rate
          else Ok ()
      | Byzantine { from_; until; node; strategy } -> (
          let* () = check_window "byz" from_ until in
          let* () = check_node "byz" node in
          match strategy with
          | Lie_constant off ->
              if not (Float.is_finite off) then
                err "byz: off must be finite"
              else Ok ()
          | Lie_drifting rate ->
              if not (Float.is_finite rate) then
                err "byz: rate must be finite"
              else Ok ()
          | Lie_random mag ->
              if mag < 0. || not (Float.is_finite mag) then
                err "byz: mag %g must be finite and >= 0" mag
              else Ok ()
          | Lie_equivocate mag ->
              if mag < 0. || not (Float.is_finite mag) then
                err "byz: equiv %g must be finite and >= 0" mag
              else Ok ()))
    (Ok ()) t
  in
  let* () = per_event in
  (* Cross-event coherence: a node cannot lie twice at once, and cannot lie
     while crash-stopped (a crashed node sends nothing to rewrite). *)
  let byz_windows =
    List.filter_map
      (function
        | Byzantine { from_; until; node; _ } -> Some (node, from_, until)
        | _ -> None)
      t
  in
  let crash_intervals =
    let open_since = Hashtbl.create 4 in
    let acc = ref [] in
    List.iter
      (function
        | Node_crash { at; node } ->
            if not (Hashtbl.mem open_since node) then
              Hashtbl.add open_since node at
        | Node_recover { at; node; _ } -> (
            match Hashtbl.find_opt open_since node with
            | Some s ->
                Hashtbl.remove open_since node;
                acc := (node, s, at) :: !acc
            | None -> ())
        | _ -> ())
      t;
    Hashtbl.iter (fun node s -> acc := (node, s, infinity) :: !acc) open_since;
    !acc
  in
  let overlap a1 b1 a2 b2 = a1 < b2 && a2 < b1 in
  let rec check_byz = function
    | [] -> Ok ()
    | (node, from_, until) :: rest ->
        let* () =
          match
            List.find_opt
              (fun (node', f', u') ->
                node' = node && overlap from_ until f' u')
              rest
          with
          | Some (_, f', u') ->
              err
                "byz: node %d has overlapping Byzantine windows %g..%g and \
                 %g..%g"
                node f' u' from_ until
          | None -> Ok ()
        in
        let* () =
          match
            List.find_opt
              (fun (node', s, e) -> node' = node && overlap from_ until s e)
              crash_intervals
          with
          | Some (_, s, _) ->
              err
                "byz: node %d is Byzantine over %g..%g but crash-stopped from \
                 %g (a crashed node sends nothing to rewrite)"
                node from_ until s
          | None -> Ok ()
        in
        check_byz rest
  in
  check_byz byz_windows

(* Episode extraction *)

type episode = {
  label : string;
  start : float;
  stop : float option;
  edges : int list;
}

let incident_edges g v =
  List.sort_uniq compare
    (Array.to_list (Array.map snd (Graph.neighbors g v)))

let byzantine_nodes t =
  List.sort_uniq compare
    (List.filter_map
       (function Byzantine { node; _ } -> Some node | _ -> None)
       t)

let lie_delta strategy ~from_ ~now ~src ~dst ~rng =
  match strategy with
  | Lie_constant off -> off
  | Lie_drifting rate -> rate *. (now -. from_)
  | Lie_random mag -> Gcs_util.Prng.uniform rng ~lo:(-.mag) ~hi:mag
  | Lie_equivocate mag ->
      (* A deterministic split-brain: everyone on the liar's higher-id side
         hears "ahead", the lower-id side hears "behind" — no two sides can
         reconcile what they saw. *)
      if dst > src then mag else -.mag

let byz_strategy_key = function
  | Lie_constant _ -> "off"
  | Lie_drifting _ -> "rate"
  | Lie_random _ -> "mag"
  | Lie_equivocate _ -> "equiv"

(* Edges whose both endpoints follow the protocol. Byzantine recovery
   metrics are measured here: skew on a liar-incident edge is meaningless
   (the liar's own clock may be arbitrarily wrong by design), so episodes
   for Byzantine windows cover exactly the correct-correct edges. *)
let correct_edges t g =
  let is_byz = Array.make (Graph.n g) false in
  List.iter (fun v -> is_byz.(v) <- true) (byzantine_nodes t);
  List.sort compare
    (Graph.fold_edges
       (fun e u v acc -> if is_byz.(u) || is_byz.(v) then acc else e :: acc)
       g [])

let episodes t g =
  let m = Graph.m g in
  let n = Graph.n g in
  let down_since = Array.make m None in
  let crashed_since = Array.make n None in
  let acc = ref [] in
  let add ep = acc := ep :: !acc in
  (* Rate-fault episodes close at the next rate event on the same node. *)
  let rate_times =
    List.filter_map
      (function Clock_rate_fault { at; node; _ } -> Some (node, at) | _ -> None)
      t
  in
  let next_rate node after =
    List.fold_left
      (fun best (v, at) ->
        if v = node && at > after then
          match best with
          | None -> Some at
          | Some b -> Some (Float.min b at)
        else best)
      None rate_times
  in
  List.iter
    (fun ev ->
      match ev with
      | Link_partition { at; edges } ->
          List.iter
            (fun e -> if down_since.(e) = None then down_since.(e) <- Some at)
            (resolve_edges g edges)
      | Link_heal { at; edges } ->
          (* Close every edge interval this heal ends; group the ones that
             went down together into one episode. *)
          let closed =
            List.filter_map
              (fun e ->
                match down_since.(e) with
                | Some s ->
                    down_since.(e) <- None;
                    Some (s, e)
                | None -> None)
              (resolve_edges g edges)
          in
          let starts = List.sort_uniq compare (List.map fst closed) in
          List.iter
            (fun s ->
              add
                {
                  label = "partition";
                  start = s;
                  stop = Some at;
                  edges =
                    List.sort compare
                      (List.filter_map
                         (fun (s', e) -> if s' = s then Some e else None)
                         closed);
                })
            starts
      | Node_crash { at; node } ->
          if crashed_since.(node) = None then crashed_since.(node) <- Some at
      | Node_recover { at; node; wipe } -> (
          match crashed_since.(node) with
          | Some s ->
              crashed_since.(node) <- None;
              add
                {
                  label =
                    Printf.sprintf "crash:%d%s" node
                      (if wipe then " (wipe)" else "");
                  start = s;
                  stop = Some at;
                  edges = incident_edges g node;
                }
          | None -> ())
      | Msg_duplicate { from_; until; edges; _ } ->
          add
            {
              label = "dup";
              start = from_;
              stop = Some until;
              edges = resolve_edges g edges;
            }
      | Msg_reorder { from_; until; edges; _ } ->
          add
            {
              label = "reorder";
              start = from_;
              stop = Some until;
              edges = resolve_edges g edges;
            }
      | Msg_corrupt { from_; until; edges; _ } ->
          add
            {
              label = "corrupt";
              start = from_;
              stop = Some until;
              edges = resolve_edges g edges;
            }
      | Clock_jump { at; node; _ } ->
          add
            {
              label = Printf.sprintf "jump:%d" node;
              start = at;
              stop = Some at;
              edges = incident_edges g node;
            }
      | Clock_rate_fault { at; node; _ } ->
          add
            {
              label = Printf.sprintf "rate:%d" node;
              start = at;
              stop = next_rate node at;
              edges = incident_edges g node;
            }
      | Byzantine { from_; until; node; strategy } ->
          add
            {
              label =
                Printf.sprintf "byz:%d (%s)" node (byz_strategy_key strategy);
              start = from_;
              stop = Some until;
              edges = correct_edges t g;
            })
    t;
  (* Never-healed exposures. *)
  let open_partitions =
    List.sort_uniq compare
      (List.filter_map Fun.id (Array.to_list down_since))
  in
  List.iter
    (fun s ->
      let es = ref [] in
      Array.iteri
        (fun e d -> if d = Some s then es := e :: !es)
        down_since;
      add
        {
          label = "partition";
          start = s;
          stop = None;
          edges = List.sort compare !es;
        })
    open_partitions;
  Array.iteri
    (fun v d ->
      match d with
      | Some s ->
          add
            {
              label = Printf.sprintf "crash:%d" v;
              start = s;
              stop = None;
              edges = incident_edges g v;
            }
      | None -> ())
    crashed_since;
  List.stable_sort
    (fun a b -> compare (a.start, a.label) (b.start, b.label))
    (List.rev !acc)
