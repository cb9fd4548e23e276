module Graph = Gcs_graph.Graph
module Prng = Gcs_util.Prng

type process =
  | Edge_up of { at : float; edges : Fault_plan.edge_spec }
  | Edge_down of { at : float; edges : Fault_plan.edge_spec }
  | Flap of {
      from_ : float;
      until : float;
      up_mean : float;
      down_mean : float;
      edges : Fault_plan.edge_spec;
    }
  | Grow of { from_ : float; until : float; edges : Fault_plan.edge_spec }
  | Shrink of { from_ : float; until : float; edges : Fault_plan.edge_spec }

type t = process list

let empty = []
let processes t = t

let process_start = function
  | Edge_up { at; _ } | Edge_down { at; _ } -> at
  | Flap { from_; _ } | Grow { from_; _ } | Shrink { from_; _ } -> from_

let of_processes ps =
  List.stable_sort
    (fun a b -> Float.compare (process_start a) (process_start b))
    ps

(* Rendering *)

let f = Gcs_util.Table.fmt_round_trip

let process_to_string = function
  | Edge_up { at; edges } ->
      Printf.sprintf "edge-up@%s:%s" (f at) (Fault_plan.edge_spec_to_string edges)
  | Edge_down { at; edges } ->
      Printf.sprintf "edge-down@%s:%s" (f at)
        (Fault_plan.edge_spec_to_string edges)
  | Flap { from_; until; up_mean; down_mean; edges } ->
      Printf.sprintf "flap@%s..%s:up=%s:down=%s%s" (f from_) (f until)
        (f up_mean) (f down_mean)
        (match edges with
        | Fault_plan.All_edges -> ""
        | e -> ":" ^ Fault_plan.edge_spec_to_string e)
  | Grow { from_; until; edges } ->
      Printf.sprintf "grow@%s..%s:%s" (f from_) (f until)
        (Fault_plan.edge_spec_to_string edges)
  | Shrink { from_; until; edges } ->
      Printf.sprintf "shrink@%s..%s:%s" (f from_) (f until)
        (Fault_plan.edge_spec_to_string edges)

let to_string t = String.concat ";" (List.map process_to_string t)

(* Parsing, with Fault_plan's grammar helpers. *)

let ( let* ) = Result.bind
let err fmt = Printf.ksprintf (fun s -> Error s) fmt

(* Every process but [flap] (which defaults to all edges) names its edges. *)
let required_edges fields =
  let* edges = Fault_plan.edge_spec_of_fields fields in
  match edges with
  | Some e -> Ok e
  | None -> err "missing edge set (all | edges=U-V,... | cut=V,...)"

let parse_process s =
  let s = String.trim s in
  match String.index_opt s '@' with
  | None -> err "churn process %S: expected KIND@TIME[:...]" s
  | Some i -> (
      let kind = String.sub s 0 i in
      let rest = String.sub s (i + 1) (String.length s - i - 1) in
      match String.split_on_char ':' rest with
      | [] -> err "churn process %S: missing time" s
      | time_field :: fields -> (
          match kind with
          | "edge-up" | "edge-down" ->
              let* at = Fault_plan.parse_float (kind ^ " time") time_field in
              let* edges = required_edges fields in
              Ok
                (if kind = "edge-up" then Edge_up { at; edges }
                 else Edge_down { at; edges })
          | "flap" ->
              let* from_, until = Fault_plan.parse_time_range time_field in
              let* up_mean =
                Result.bind (Fault_plan.require_kv "flap" fields "up")
                  (Fault_plan.parse_float "flap up")
              in
              let* down_mean =
                Result.bind (Fault_plan.require_kv "flap" fields "down")
                  (Fault_plan.parse_float "flap down")
              in
              let* edges = Fault_plan.edge_spec_of_fields fields in
              let edges = Option.value edges ~default:Fault_plan.All_edges in
              Ok (Flap { from_; until; up_mean; down_mean; edges })
          | "grow" ->
              let* from_, until = Fault_plan.parse_time_range time_field in
              let* edges = required_edges fields in
              Ok (Grow { from_; until; edges })
          | "shrink" ->
              let* from_, until = Fault_plan.parse_time_range time_field in
              let* edges = required_edges fields in
              Ok (Shrink { from_; until; edges })
          | k -> err "unknown churn process %S" k))

let of_string s =
  let chunks =
    List.filter (fun c -> String.trim c <> "") (String.split_on_char ';' s)
  in
  if chunks = [] then err "empty churn plan"
  else
    let* ps =
      List.fold_left
        (fun acc chunk ->
          let* acc = acc in
          let* p = parse_process chunk in
          Ok (p :: acc))
        (Ok []) chunks
    in
    Ok (of_processes (List.rev ps))

(* Validation *)

(* What a process asserts about an edge, as a time interval it claims
   exclusively (generative processes) or a point event (explicit ones).
   Growing networks own their edges from t = 0 (the edge must be absent
   before it appears); shrinking ones own them forever after. *)
type claim =
  | At of float * bool (* explicit event: time, direction (up?) *)
  | Over of float * float * string (* generative: [lo, hi), label *)

let claims graph p =
  let ids edges = Fault_plan.resolve_edges graph edges in
  match p with
  | Edge_up { at; edges } -> List.map (fun e -> (e, At (at, true))) (ids edges)
  | Edge_down { at; edges } ->
      List.map (fun e -> (e, At (at, false))) (ids edges)
  | Flap { from_; until; edges; _ } ->
      List.map (fun e -> (e, Over (from_, until, "flap"))) (ids edges)
  | Grow { until; edges; _ } ->
      List.map (fun e -> (e, Over (0., until, "grow"))) (ids edges)
  | Shrink { from_; edges; _ } ->
      List.map (fun e -> (e, Over (from_, infinity, "shrink"))) (ids edges)

let claim_conflict a b =
  match (a, b) with
  | At (t1, d1), At (t2, d2) -> t1 = t2 && d1 <> d2
  | At (t, _), Over (lo, hi, _) | Over (lo, hi, _), At (t, _) ->
      lo <= t && t < hi
  | Over (lo1, hi1, _), Over (lo2, hi2, _) -> lo1 < hi2 && lo2 < hi1

let claim_label = function
  | At (t, true) -> Printf.sprintf "edge-up@%g" t
  | At (t, false) -> Printf.sprintf "edge-down@%g" t
  | Over (lo, hi, l) -> Printf.sprintf "%s over %g..%g" l lo hi

let validate t graph =
  let check_time what at =
    if at < 0. || not (Float.is_finite at) then
      err "%s: time %g must be finite and >= 0" what at
    else Ok ()
  in
  let check_window what from_ until =
    let* () = check_time what from_ in
    if until <= from_ then
      err "%s: window %g..%g is empty or backwards" what from_ until
    else Ok ()
  in
  let check_edges what edges =
    match Fault_plan.resolve_edges graph edges with
    | _ -> Ok ()
    | exception Invalid_argument msg -> err "%s: %s" what msg
  in
  let per_process =
    List.fold_left
      (fun acc p ->
        let* () = acc in
        match p with
        | Edge_up { at; edges } ->
            let* () = check_time "edge-up" at in
            check_edges "edge-up" edges
        | Edge_down { at; edges } ->
            let* () = check_time "edge-down" at in
            check_edges "edge-down" edges
        | Flap { from_; until; up_mean; down_mean; edges } ->
            let* () = check_window "flap" from_ until in
            let* () =
              if up_mean <= 0. || not (Float.is_finite up_mean) then
                err "flap: up mean %g must be finite and > 0" up_mean
              else Ok ()
            in
            let* () =
              if down_mean <= 0. || not (Float.is_finite down_mean) then
                err "flap: down mean %g must be finite and > 0" down_mean
              else Ok ()
            in
            check_edges "flap" edges
        | Grow { from_; until; edges } ->
            let* () = check_window "grow" from_ until in
            check_edges "grow" edges
        | Shrink { from_; until; edges } ->
            let* () = check_window "shrink" from_ until in
            check_edges "shrink" edges)
      (Ok ()) t
  in
  let* () = per_process in
  (* Cross-process coherence: no edge may be claimed twice over overlapping
     time — a generative process owns its edges for its whole claim, and
     two explicit events cannot contradict each other at one instant. *)
  let by_edge = Hashtbl.create 16 in
  List.fold_left
    (fun acc p ->
      let* () = acc in
      List.fold_left
        (fun acc (e, c) ->
          let* () = acc in
          let prior = Hashtbl.find_all by_edge e in
          match List.find_opt (fun c' -> claim_conflict c c') prior with
          | Some c' ->
              let u, v = Graph.edge_endpoints graph e in
              err "churn: edge %d-%d claimed by both %s and %s" u v
                (claim_label c') (claim_label c)
          | None ->
              Hashtbl.add by_edge e c;
              Ok ())
        (Ok ()) (claims graph p))
    (Ok ()) t

(* Compilation *)

let compile t ~graph ~seed ~horizon =
  (match validate t graph with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Churn_plan.compile: " ^ msg));
  let rng = Prng.create ~seed:(seed lxor 0xC409) in
  let transitions = ref [] (* (time, edge, up?), reversed gen order *) in
  let add at e up = transitions := (at, e, up) :: !transitions in
  let initially_down = Array.make (Graph.m graph) false in
  let spread from_ until k i =
    (* Evenly spread arrival/departure instants, strictly inside the
       window, deterministic in the edge's position. *)
    from_ +. ((float_of_int i +. 1.) /. (float_of_int k +. 1.) *. (until -. from_))
  in
  List.iter
    (fun p ->
      (* One stream per process regardless of kind, so adding a flap never
         shifts the draws of a later one. *)
      let prng_p = Prng.split rng in
      match p with
      | Edge_up { at; edges } ->
          List.iter
            (fun e -> add at e true)
            (Fault_plan.resolve_edges graph edges)
      | Edge_down { at; edges } ->
          List.iter
            (fun e -> add at e false)
            (Fault_plan.resolve_edges graph edges)
      | Grow { from_; until; edges } ->
          let ids = Fault_plan.resolve_edges graph edges in
          let k = List.length ids in
          List.iteri
            (fun i e ->
              initially_down.(e) <- true;
              add (spread from_ until k i) e true)
            ids
      | Shrink { from_; until; edges } ->
          let ids = Fault_plan.resolve_edges graph edges in
          let k = List.length ids in
          List.iteri (fun i e -> add (spread from_ until k i) e false) ids
      | Flap { from_; until; up_mean; down_mean; edges } ->
          let ids = Fault_plan.resolve_edges graph edges in
          let streams = Prng.split_n prng_p (List.length ids) in
          List.iteri
            (fun i e ->
              let r = streams.(i) in
              let up = ref true in
              let t = ref (from_ +. Prng.exponential r ~rate:(1. /. up_mean)) in
              while !t < until do
                up := not !up;
                add !t e !up;
                let mean = if !up then up_mean else down_mean in
                t := !t +. Prng.exponential r ~rate:(1. /. mean)
              done;
              if not !up then add until e true)
            ids)
    t;
  (* Replay the transitions in time order against the edge state the engine
     will actually hold, eliding every no-op: an inert plan compiles to no
     events at all, which is what keeps unchurned runs bit-identical. *)
  let state = Array.init (Graph.m graph) (fun e -> not initially_down.(e)) in
  let trans =
    List.stable_sort
      (fun (a, _, _) (b, _, _) -> Float.compare a b)
      (List.rev !transitions)
  in
  let events = ref [] in
  Array.iteri
    (fun e down ->
      if down then
        events :=
          Fault_plan.Link_partition
            { at = 0.; edges = Fault_plan.Edges [ Graph.edge_endpoints graph e ] }
          :: !events)
    initially_down;
  List.iter
    (fun (at, e, up) ->
      if state.(e) <> up && at <= horizon then begin
        state.(e) <- up;
        let edges = Fault_plan.Edges [ Graph.edge_endpoints graph e ] in
        events :=
          (if up then Fault_plan.Link_heal { at; edges }
           else Fault_plan.Link_partition { at; edges })
          :: !events
      end)
    trans;
  match List.rev !events with
  | [] -> None
  | evs -> Some (Fault_plan.of_events evs)

(* Up-window extraction from a (compiled) fault plan. *)

let up_windows plan ~graph ~horizon =
  let m = Graph.m graph in
  let touched = Array.make m false in
  let up = Array.make m true in
  let since = Array.make m 0. in
  let acc = Array.make m [] in
  List.iter
    (fun ev ->
      match ev with
      | Fault_plan.Link_partition { at; edges } ->
          List.iter
            (fun e ->
              touched.(e) <- true;
              if up.(e) then begin
                up.(e) <- false;
                acc.(e) <- (since.(e), at) :: acc.(e)
              end)
            (Fault_plan.resolve_edges graph edges)
      | Fault_plan.Link_heal { at; edges } ->
          List.iter
            (fun e ->
              touched.(e) <- true;
              if not up.(e) then begin
                up.(e) <- true;
                since.(e) <- at
              end)
            (Fault_plan.resolve_edges graph edges)
      | _ -> ())
    (Fault_plan.events plan);
  let out = ref [] in
  for e = m - 1 downto 0 do
    if touched.(e) then begin
      let ivs = if up.(e) then (since.(e), horizon) :: acc.(e) else acc.(e) in
      out := (Graph.edge_endpoints graph e, List.rev ivs) :: !out
    end
  done;
  !out
