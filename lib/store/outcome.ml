type fault = { transient : float; fault_drops : int; resync : float option }

type t = {
  nodes : int;
  edges : int;
  diameter : int;
  max_global : float;
  max_local : float;
  mean_local : float;
  p99_local : float;
  final_global : float;
  final_local : float;
  samples_used : int;
  messages : int;
  dropped : int;
  dropped_faults : int;
  events : int;
  jump_count : int;
  jump_total : float;
  jump_max : float;
  fault : fault option;
}

let magic = "gcs.store:outcome:1"
let flt = Gcs_util.Table.fmt_17g

let encode t =
  let b = Buffer.create 256 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  line "%s" magic;
  line "nodes=%d" t.nodes;
  line "edges=%d" t.edges;
  line "diameter=%d" t.diameter;
  line "max_global=%s" (flt t.max_global);
  line "max_local=%s" (flt t.max_local);
  line "mean_local=%s" (flt t.mean_local);
  line "p99_local=%s" (flt t.p99_local);
  line "final_global=%s" (flt t.final_global);
  line "final_local=%s" (flt t.final_local);
  line "samples_used=%d" t.samples_used;
  line "messages=%d" t.messages;
  line "dropped=%d" t.dropped;
  line "dropped_faults=%d" t.dropped_faults;
  line "events=%d" t.events;
  line "jump_count=%d" t.jump_count;
  line "jump_total=%s" (flt t.jump_total);
  line "jump_max=%s" (flt t.jump_max);
  (match t.fault with
  | None -> ()
  | Some f ->
      line "fault_transient=%s" (flt f.transient);
      line "fault_drops=%d" f.fault_drops;
      line "fault_resync=%s"
        (match f.resync with None -> "never" | Some r -> flt r));
  Buffer.contents b

exception Bad of string

let decode s =
  try
    let lines =
      match String.split_on_char '\n' s with
      | hd :: rest when String.equal hd magic ->
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
    let nodes = intf "nodes" in
    let edges = intf "edges" in
    let diameter = intf "diameter" in
    let max_global = fltf "max_global" in
    let max_local = fltf "max_local" in
    let mean_local = fltf "mean_local" in
    let p99_local = fltf "p99_local" in
    let final_global = fltf "final_global" in
    let final_local = fltf "final_local" in
    let samples_used = intf "samples_used" in
    let messages = intf "messages" in
    let dropped = intf "dropped" in
    let dropped_faults = intf "dropped_faults" in
    let events = intf "events" in
    let jump_count = intf "jump_count" in
    let jump_total = fltf "jump_total" in
    let jump_max = fltf "jump_max" in
    let fault =
      match !remaining with
      | [] -> None
      | _ ->
          let transient = fltf "fault_transient" in
          let fault_drops = intf "fault_drops" in
          let resync =
            match field "fault_resync" with
            | "never" -> None
            | v -> (
                match float_of_string_opt v with
                | Some r -> Some r
                | None ->
                    raise
                      (Bad (Printf.sprintf "field fault_resync: bad value %S" v))
                )
          in
          Some { transient; fault_drops; resync }
    in
    (match !remaining with
    | [] -> ()
    | l :: _ -> raise (Bad (Printf.sprintf "trailing line %S" l)));
    Ok
      {
        nodes;
        edges;
        diameter;
        max_global;
        max_local;
        mean_local;
        p99_local;
        final_global;
        final_local;
        samples_used;
        messages;
        dropped;
        dropped_faults;
        events;
        jump_count;
        jump_total;
        jump_max;
        fault;
      }
  with Bad msg -> Error msg
