module Engine = Gcs_sim.Engine
module Csv = Gcs_util.Csv

type format = Jsonl | Csv

type entry = { seq : int; time : float; obs : Engine.observation }

(* Storage is parallel unboxed columns: each observation is flattened at
   record time into one packed int (kind tag + up to three small-int
   fields) plus a float slot for the kinds that carry one, and is
   reconstructed only at export. Retaining the engine's observation
   values instead would keep ~100k short-lived heap objects alive per
   run — the minor-heap promotion and major-GC scanning that causes, not
   the export formatting, is what used to blow the E21 overhead budget.
   Unboxed columns are invisible to the GC and recording allocates
   almost nothing (one short-lived tuple per event).

   Packed word layout: bits 0-3 kind tag, bits 4-22 / 23-41 / 42-60 the
   three 19-bit fields. Ids above 2^19 - 1 (524287 nodes or edges —
   far beyond any simulated topology) take the escape path: the raw
   observation goes into a side table keyed by storage slot. *)
type cols = { times : float array; xs : float array; packed : int array }

(* Float columns are created uninitialized: every slot is written before
   it can be read (exports stop at [recorded]; a ring overwrites a slot
   before re-reading it), and skipping the zeroing pass halves the fresh
   memory traffic a large unbounded log pays. The packed column must stay
   [Array.make] — uninitialized words are not valid OCaml values. *)
let make_cols n =
  {
    times = Array.create_float n;
    xs = Array.create_float n;
    packed = Array.make n 0;
  }

let field_bits = 19
let field_outside = lnot ((1 lsl field_bits) - 1)
let escape_tag = 13

let[@inline] fits3 a b c = (a lor b lor c) land field_outside = 0

let[@inline] pack tag a b c =
  tag
  lor (a lsl 4)
  lor (b lsl (4 + field_bits))
  lor (c lsl (4 + (2 * field_bits)))

let[@inline] unpack_field p shift = (p lsr shift) land ((1 lsl field_bits) - 1)

(* Unbounded logs store fixed-size chunks, so growth never re-copies or
   re-zeroes entry data — with ~100k observations per run, the doubling
   strategy's cumulative blits were a measurable slice of the budget. *)
let chunk_bits = 14
let chunk_size = 1 lsl chunk_bits
let chunk_mask = chunk_size - 1

type grow = { mutable chunks : cols array; mutable n_chunks : int }

type ring = { cols : cols; mutable next : int }

type store =
  | Grow of grow  (** unbounded; index = seq *)
  | Ring of ring

type t = {
  format_ : format;
  store : store;
  overflow : (int, Engine.observation) Hashtbl.t;
      (** escape-path entries, keyed by storage slot (Grow: seq; Ring:
          ring index) *)
  mutable recorded : int;
}

let create ?capacity ?(format_ = Jsonl) () =
  let store =
    match capacity with
    | Some c ->
        if c <= 0 then invalid_arg "Event_log.create: capacity must be > 0";
        Ring { cols = make_cols c; next = 0 }
    | None -> Grow { chunks = [||]; n_chunks = 0 }
  in
  { format_; store; overflow = Hashtbl.create 8; recorded = 0 }

let escape t cols i key obs =
  Array.unsafe_set cols.packed i escape_tag;
  Hashtbl.replace t.overflow key obs

(* One arm per kind with direct stores: building an intermediate
   (tag, a, b, c) tuple would allocate on every recorded event. *)
let[@inline] put t cols i key time obs =
  Array.unsafe_set cols.times i time;
  match obs with
  | Engine.Obs_send { src; dst; edge; delay } ->
      Array.unsafe_set cols.xs i delay;
      if fits3 src dst edge then
        Array.unsafe_set cols.packed i (pack 0 src dst edge)
      else escape t cols i key obs
  | Engine.Obs_drop { src; dst; edge } ->
      if fits3 src dst edge then
        Array.unsafe_set cols.packed i (pack 1 src dst edge)
      else escape t cols i key obs
  | Engine.Obs_deliver { dst; port } ->
      if fits3 dst port 0 then
        Array.unsafe_set cols.packed i (pack 2 dst port 0)
      else escape t cols i key obs
  | Engine.Obs_timer { node; tag } ->
      if fits3 node tag 0 then
        Array.unsafe_set cols.packed i (pack 3 node tag 0)
      else escape t cols i key obs
  | Engine.Obs_rate_change { node; rate } ->
      Array.unsafe_set cols.xs i rate;
      if fits3 node 0 0 then Array.unsafe_set cols.packed i (pack 4 node 0 0)
      else escape t cols i key obs
  | Engine.Obs_node_down { node } ->
      if fits3 node 0 0 then Array.unsafe_set cols.packed i (pack 5 node 0 0)
      else escape t cols i key obs
  | Engine.Obs_node_up { node; wipe } ->
      if fits3 node 0 0 then
        Array.unsafe_set cols.packed i
          (pack 6 node (if wipe then 1 else 0) 0)
      else escape t cols i key obs
  | Engine.Obs_edge_down { edge } ->
      if fits3 edge 0 0 then Array.unsafe_set cols.packed i (pack 7 edge 0 0)
      else escape t cols i key obs
  | Engine.Obs_edge_up { edge } ->
      if fits3 edge 0 0 then Array.unsafe_set cols.packed i (pack 8 edge 0 0)
      else escape t cols i key obs
  | Engine.Obs_fault_drop { src; dst; edge } ->
      if fits3 src dst edge then
        Array.unsafe_set cols.packed i (pack 9 src dst edge)
      else escape t cols i key obs
  | Engine.Obs_duplicate { src; dst; edge } ->
      if fits3 src dst edge then
        Array.unsafe_set cols.packed i (pack 10 src dst edge)
      else escape t cols i key obs
  | Engine.Obs_corrupt { src; dst; edge } ->
      if fits3 src dst edge then
        Array.unsafe_set cols.packed i (pack 11 src dst edge)
      else escape t cols i key obs
  | Engine.Obs_lie { src; dst; edge } ->
      if fits3 src dst edge then
        Array.unsafe_set cols.packed i (pack 12 src dst edge)
      else escape t cols i key obs

let get t cols i key =
  let p = cols.packed.(i) in
  let a = unpack_field p 4
  and b = unpack_field p (4 + field_bits)
  and c = unpack_field p (4 + (2 * field_bits)) in
  match p land 0xF with
  | 0 -> Engine.Obs_send { src = a; dst = b; edge = c; delay = cols.xs.(i) }
  | 1 -> Engine.Obs_drop { src = a; dst = b; edge = c }
  | 2 -> Engine.Obs_deliver { dst = a; port = b }
  | 3 -> Engine.Obs_timer { node = a; tag = b }
  | 4 -> Engine.Obs_rate_change { node = a; rate = cols.xs.(i) }
  | 5 -> Engine.Obs_node_down { node = a }
  | 6 -> Engine.Obs_node_up { node = a; wipe = b = 1 }
  | 7 -> Engine.Obs_edge_down { edge = a }
  | 8 -> Engine.Obs_edge_up { edge = a }
  | 9 -> Engine.Obs_fault_drop { src = a; dst = b; edge = c }
  | 10 -> Engine.Obs_duplicate { src = a; dst = b; edge = c }
  | 11 -> Engine.Obs_corrupt { src = a; dst = b; edge = c }
  | 12 -> Engine.Obs_lie { src = a; dst = b; edge = c }
  | _ -> Hashtbl.find t.overflow key

let format t = t.format_
let recorded t = t.recorded

(* %.17g round-trips every double exactly, so export -> parse -> re-export
   is byte-identical — the property the schema checker enforces. *)
let fnum x = Printf.sprintf "%.17g" x

let tag_of_obs = function
  | Engine.Obs_send _ -> "send"
  | Engine.Obs_drop _ -> "drop"
  | Engine.Obs_deliver _ -> "deliver"
  | Engine.Obs_timer _ -> "timer"
  | Engine.Obs_rate_change _ -> "rate"
  | Engine.Obs_node_down _ -> "node_down"
  | Engine.Obs_node_up _ -> "node_up"
  | Engine.Obs_edge_down _ -> "edge_down"
  | Engine.Obs_edge_up _ -> "edge_up"
  | Engine.Obs_fault_drop _ -> "fault_drop"
  | Engine.Obs_duplicate _ -> "dup"
  | Engine.Obs_corrupt _ -> "corrupt"
  | Engine.Obs_lie _ -> "lie"

type field = I of int | F of float | B of bool

let fields_of_obs = function
  | Engine.Obs_send { src; dst; edge; delay } ->
      [ ("src", I src); ("dst", I dst); ("edge", I edge); ("delay", F delay) ]
  | Engine.Obs_drop { src; dst; edge }
  | Engine.Obs_fault_drop { src; dst; edge }
  | Engine.Obs_duplicate { src; dst; edge }
  | Engine.Obs_corrupt { src; dst; edge }
  | Engine.Obs_lie { src; dst; edge } ->
      [ ("src", I src); ("dst", I dst); ("edge", I edge) ]
  | Engine.Obs_deliver { dst; port } -> [ ("dst", I dst); ("port", I port) ]
  | Engine.Obs_timer { node; tag } -> [ ("node", I node); ("tag", I tag) ]
  | Engine.Obs_rate_change { node; rate } ->
      [ ("node", I node); ("rate", F rate) ]
  | Engine.Obs_node_down { node } -> [ ("node", I node) ]
  | Engine.Obs_node_up { node; wipe } -> [ ("node", I node); ("wipe", B wipe) ]
  | Engine.Obs_edge_down { edge } | Engine.Obs_edge_up { edge } ->
      [ ("edge", I edge) ]

let field_to_string = function
  | I i -> string_of_int i
  | F x -> fnum x
  | B b -> if b then "true" else "false"

let encode_jsonl ?run e =
  let buf = Buffer.create 96 in
  Buffer.add_char buf '{';
  (match run with
  | Some r ->
      Buffer.add_string buf "\"run\":";
      Buffer.add_string buf (string_of_int r);
      Buffer.add_char buf ','
  | None -> ());
  Buffer.add_string buf "\"seq\":";
  Buffer.add_string buf (string_of_int e.seq);
  Buffer.add_string buf ",\"t\":";
  Buffer.add_string buf (fnum e.time);
  Buffer.add_string buf ",\"ev\":\"";
  Buffer.add_string buf (tag_of_obs e.obs);
  Buffer.add_char buf '"';
  List.iter
    (fun (k, v) ->
      Buffer.add_string buf ",\"";
      Buffer.add_string buf k;
      Buffer.add_string buf "\":";
      Buffer.add_string buf (field_to_string v))
    (fields_of_obs e.obs);
  Buffer.add_char buf '}';
  Buffer.contents buf

(* One fixed CSV column set covering every event kind; fields a kind does
   not carry stay empty. *)
let csv_columns =
  [
    "seq"; "time"; "ev"; "src"; "dst"; "edge"; "delay"; "node"; "port"; "tag";
    "rate"; "wipe";
  ]

let csv_header ?(run = false) () =
  if run then "run" :: csv_columns else csv_columns

let encode_csv ?run e =
  let fields = fields_of_obs e.obs in
  let cell name =
    match List.assoc_opt name fields with
    | Some v -> field_to_string v
    | None -> ""
  in
  let row =
    [ string_of_int e.seq; fnum e.time; tag_of_obs e.obs ]
    @ List.map cell [ "src"; "dst"; "edge"; "delay"; "node"; "port"; "tag";
                      "rate"; "wipe" ]
  in
  let row = match run with Some r -> string_of_int r :: row | None -> row in
  Csv.render_row row

let encode_line ?run format e =
  match format with Jsonl -> encode_jsonl ?run e | Csv -> encode_csv ?run e

let entry_to_string time obs =
  match obs with
  | Engine.Obs_send { src; dst; edge; delay } ->
      Printf.sprintf "%10.4f  send     %d -> %d (edge %d, delay %.4f)" time src
        dst edge delay
  | Engine.Obs_drop { src; dst; edge } ->
      Printf.sprintf "%10.4f  drop     %d -> %d (edge %d)" time src dst edge
  | Engine.Obs_deliver { dst; port } ->
      Printf.sprintf "%10.4f  deliver  -> %d (port %d)" time dst port
  | Engine.Obs_timer { node; tag } ->
      Printf.sprintf "%10.4f  timer    @ %d (tag %d)" time node tag
  | Engine.Obs_rate_change { node; rate } ->
      Printf.sprintf "%10.4f  rate     @ %d -> %.6f" time node rate
  | Engine.Obs_node_down { node } ->
      Printf.sprintf "%10.4f  down     @ %d" time node
  | Engine.Obs_node_up { node; wipe } ->
      Printf.sprintf "%10.4f  up       @ %d%s" time node
        (if wipe then " (wiped)" else "")
  | Engine.Obs_edge_down { edge } ->
      Printf.sprintf "%10.4f  cut      edge %d" time edge
  | Engine.Obs_edge_up { edge } ->
      Printf.sprintf "%10.4f  healed   edge %d" time edge
  | Engine.Obs_fault_drop { src; dst; edge } ->
      Printf.sprintf "%10.4f  f-drop   %d -> %d (edge %d)" time src dst edge
  | Engine.Obs_duplicate { src; dst; edge } ->
      Printf.sprintf "%10.4f  dup      %d -> %d (edge %d)" time src dst edge
  | Engine.Obs_corrupt { src; dst; edge } ->
      Printf.sprintf "%10.4f  corrupt  %d -> %d (edge %d)" time src dst edge
  | Engine.Obs_lie { src; dst; edge } ->
      Printf.sprintf "%10.4f  lie      %d -> %d (edge %d)" time src dst edge

let add_chunk g =
  let ci = g.n_chunks in
  if ci = Array.length g.chunks then begin
    let nc = Array.make (max 4 (2 * ci)) (make_cols 0) in
    Array.blit g.chunks 0 nc 0 ci;
    g.chunks <- nc
  end;
  g.chunks.(ci) <- make_cols chunk_size;
  g.n_chunks <- ci + 1

let record_grow t g time obs =
  let i = t.recorded in
  let ci = i lsr chunk_bits in
  if ci = g.n_chunks then add_chunk g;
  put t (Array.unsafe_get g.chunks ci) (i land chunk_mask) i time obs;
  t.recorded <- i + 1

let record_ring t r time obs =
  let i = r.next in
  if Hashtbl.length t.overflow > 0 then Hashtbl.remove t.overflow i;
  put t r.cols i i time obs;
  let j = i + 1 in
  r.next <- (if j = Array.length r.cols.packed then 0 else j);
  t.recorded <- t.recorded + 1

let record t time obs =
  match t.store with
  | Grow g -> record_grow t g time obs
  | Ring r -> record_ring t r time obs

(* The observer closure is specialized to the storage mode (no per-event
   match) and eta-expanded to a direct two-argument closure; a partial
   application would route every call through the generic currying path. *)
let attach t engine =
  Engine.add_observer engine
    (match t.store with
    | Grow g -> fun time obs -> record_grow t g time obs
    | Ring r -> fun time obs -> record_ring t r time obs)

let entries t =
  match t.store with
  | Grow g ->
      List.init t.recorded (fun i ->
          let cols = g.chunks.(i lsr chunk_bits) in
          let off = i land chunk_mask in
          { seq = i; time = cols.times.(off); obs = get t cols off i })
  | Ring r ->
      let cap = Array.length r.cols.packed in
      let count = min t.recorded cap in
      let start = if t.recorded > cap then r.next else 0 in
      List.init count (fun k ->
          let i = (start + k) mod cap in
          { seq = t.recorded - count + k;
            time = r.cols.times.(i);
            obs = get t r.cols i i })

let retained t =
  match t.store with
  | Grow _ -> t.recorded
  | Ring r -> min t.recorded (Array.length r.cols.packed)

let to_lines ?run t = List.map (fun e -> encode_line ?run t.format_ e) (entries t)

let to_string ?run t =
  let buf = Buffer.create 4096 in
  List.iter
    (fun e ->
      Buffer.add_string buf (encode_line ?run t.format_ e);
      Buffer.add_char buf '\n')
    (entries t);
  Buffer.contents buf

let write ?run t ~path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      (match t.format_ with
      | Csv ->
          output_string oc (Csv.render_row (csv_header ~run:(run <> None) ()));
          output_char oc '\n'
      | Jsonl -> ());
      output_string oc (to_string ?run t))

(* --- JSONL parsing (the schema checker and round-trip tests) ----------- *)

type parsed = { run : int option; entry : entry }

exception Bad of string

let parse_obj line =
  (* Flat {"key":value,...} objects only — exactly what [encode_jsonl]
     emits. Values are integers, floats, booleans, or quote-delimited
     strings without escapes. *)
  let n = String.length line in
  let pos = ref 0 in
  let fail msg = raise (Bad msg) in
  let expect c =
    if !pos >= n || line.[!pos] <> c then
      fail (Printf.sprintf "expected '%c' at offset %d" c !pos);
    incr pos
  in
  let quoted () =
    expect '"';
    let start = !pos in
    while !pos < n && line.[!pos] <> '"' do
      if line.[!pos] = '\\' then fail "escapes are not part of the schema";
      incr pos
    done;
    if !pos >= n then fail "unterminated string";
    let s = String.sub line start (!pos - start) in
    incr pos;
    s
  in
  let raw_value () =
    if !pos < n && line.[!pos] = '"' then quoted ()
    else begin
      let start = !pos in
      while !pos < n && line.[!pos] <> ',' && line.[!pos] <> '}' do
        incr pos
      done;
      String.sub line start (!pos - start)
    end
  in
  expect '{';
  let pairs = ref [] in
  let rec loop () =
    let k = quoted () in
    expect ':';
    let v = raw_value () in
    if List.mem_assoc k !pairs then fail ("duplicate key " ^ k);
    pairs := (k, v) :: !pairs;
    if !pos < n && line.[!pos] = ',' then begin
      incr pos;
      loop ()
    end
  in
  if !pos < n && line.[!pos] <> '}' then loop ();
  expect '}';
  if !pos <> n then fail "trailing bytes after object";
  List.rev !pairs

let parse_line line =
  try
    let pairs = parse_obj line in
    let used = ref [] in
    let take k =
      match List.assoc_opt k pairs with
      | Some v ->
          used := k :: !used;
          v
      | None -> raise (Bad ("missing field " ^ k))
    in
    let take_opt k =
      Option.map
        (fun v ->
          used := k :: !used;
          v)
        (List.assoc_opt k pairs)
    in
    let int_of k v =
      match int_of_string_opt v with
      | Some i -> i
      | None -> raise (Bad (k ^ " is not an integer: " ^ v))
    in
    let float_of k v =
      match float_of_string_opt v with
      | Some x -> x
      | None -> raise (Bad (k ^ " is not a number: " ^ v))
    in
    let bool_of k = function
      | "true" -> true
      | "false" -> false
      | v -> raise (Bad (k ^ " is not a boolean: " ^ v))
    in
    let int k = int_of k (take k) in
    let float k = float_of k (take k) in
    let bool k = bool_of k (take k) in
    let run = Option.map (int_of "run") (take_opt "run") in
    let seq = int "seq" in
    let time = float "t" in
    let obs =
      match take "ev" with
      | "send" ->
          Engine.Obs_send
            { src = int "src"; dst = int "dst"; edge = int "edge";
              delay = float "delay" }
      | "drop" ->
          Engine.Obs_drop { src = int "src"; dst = int "dst"; edge = int "edge" }
      | "deliver" -> Engine.Obs_deliver { dst = int "dst"; port = int "port" }
      | "timer" -> Engine.Obs_timer { node = int "node"; tag = int "tag" }
      | "rate" ->
          Engine.Obs_rate_change { node = int "node"; rate = float "rate" }
      | "node_down" -> Engine.Obs_node_down { node = int "node" }
      | "node_up" -> Engine.Obs_node_up { node = int "node"; wipe = bool "wipe" }
      | "edge_down" -> Engine.Obs_edge_down { edge = int "edge" }
      | "edge_up" -> Engine.Obs_edge_up { edge = int "edge" }
      | "fault_drop" ->
          Engine.Obs_fault_drop
            { src = int "src"; dst = int "dst"; edge = int "edge" }
      | "dup" ->
          Engine.Obs_duplicate
            { src = int "src"; dst = int "dst"; edge = int "edge" }
      | "corrupt" ->
          Engine.Obs_corrupt
            { src = int "src"; dst = int "dst"; edge = int "edge" }
      | "lie" ->
          Engine.Obs_lie
            { src = int "src"; dst = int "dst"; edge = int "edge" }
      | ev -> raise (Bad ("unknown event tag " ^ ev))
    in
    List.iter
      (fun (k, _) ->
        if not (List.mem k !used) then raise (Bad ("unexpected field " ^ k)))
      pairs;
    Ok { run; entry = { seq; time; obs } }
  with Bad msg -> Error msg

let validate_line line =
  match parse_line line with
  | Error _ as e -> e
  | Ok p ->
      let again = encode_jsonl ?run:p.run p.entry in
      if String.equal again line then Ok p
      else Error "line is valid but not in canonical form"
