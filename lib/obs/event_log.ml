module Engine = Gcs_sim.Engine
module Csv = Gcs_util.Csv
module Table = Gcs_util.Table

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

(* Decimal digits straight into the buffer. Negative ints, which only a
   parsed line can carry, go through [string_of_int]. *)
let rec add_digits buf n =
  if n >= 10 then add_digits buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 + (n mod 10)))

let add_int buf n =
  if n >= 0 then add_digits buf n else Buffer.add_string buf (string_of_int n)

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

(* One fixed CSV column set covering every event kind; fields a kind does
   not carry stay empty. No cell ever needs quoting: cells are integers,
   %.17g floats, tags and booleans. *)
let csv_columns =
  [
    "seq"; "time"; "ev"; "src"; "dst"; "edge"; "delay"; "node"; "port"; "tag";
    "rate"; "wipe";
  ]

let csv_header ?(run = false) () =
  if run then "run" :: csv_columns else csv_columns

(* The per-kind cells that follow seq, time and ev. *)
let csv_cells = List.length csv_columns - 3

(* One export pass: the line buffer it reuses, the text in front of each
   line's seq (the run tag, and JSONL's opening), the CSV cells written so
   far, and the last time printed with its text. A send shares its timer's
   time, so about a third of a run's lines repeat their predecessor's time;
   the memo compares bits, so 0. and -0. keep their own texts. The text
   is at most 24 bytes (as in -2.2250738585072014e-308). *)
type encoder = {
  buf : Buffer.t;
  csv : bool;
  prefix : string;
  mutable cells : int;
  last_time : float array;
  last_text : Bytes.t;
  mutable last_len : int;
}

let encoder ?run format_ =
  let csv = format_ = Csv in
  let prefix =
    match (run, csv) with
    | None, false -> "{\"seq\":"
    | Some r, false -> "{\"run\":" ^ string_of_int r ^ ",\"seq\":"
    | None, true -> ""
    | Some r, true -> string_of_int r ^ ","
  in
  let last_text = Bytes.create 24 in
  Bytes.set last_text 0 '0' (* the text of 0. *);
  { buf = Buffer.create 128; csv; prefix; cells = 0; last_time = [| 0. |];
    last_text; last_len = 1 }

let add_time e t =
  let b = e.buf in
  if Int64.bits_of_float t = Int64.bits_of_float e.last_time.(0) then
    Buffer.add_subbytes b e.last_text 0 e.last_len
  else begin
    let pos = Buffer.length b in
    Table.add_17g b t;
    e.last_time.(0) <- t;
    e.last_len <- Buffer.length b - pos;
    Buffer.blit b pos e.last_text 0 e.last_len
  end

(* Start the field that CSV keeps in cell [cell]: JSONL writes its literal
   [key], CSV the comma before every cell up to that one. *)
let start_field e cell key =
  if e.csv then
    while e.cells <= cell do
      Buffer.add_char e.buf ',';
      e.cells <- e.cells + 1
    done
  else Buffer.add_string e.buf key

let int_field e cell key v =
  start_field e cell key;
  add_int e.buf v

(* %.17g round-trips every double exactly, so export -> parse -> re-export
   is byte-identical — the property the schema checker enforces. *)
let float_field e cell key x =
  start_field e cell key;
  Table.add_17g e.buf x

let src_dst_edge e src dst edge =
  int_field e 0 ",\"src\":" src;
  int_field e 1 ",\"dst\":" dst;
  int_field e 2 ",\"edge\":" edge

let add_fields e = function
  | Engine.Obs_send { src; dst; edge; delay } ->
      src_dst_edge e src dst edge;
      float_field e 3 ",\"delay\":" delay
  | Engine.Obs_drop { src; dst; edge }
  | Engine.Obs_fault_drop { src; dst; edge }
  | Engine.Obs_duplicate { src; dst; edge }
  | Engine.Obs_corrupt { src; dst; edge }
  | Engine.Obs_lie { src; dst; edge } ->
      src_dst_edge e src dst edge
  | Engine.Obs_deliver { dst; port } ->
      int_field e 1 ",\"dst\":" dst;
      int_field e 5 ",\"port\":" port
  | Engine.Obs_timer { node; tag } ->
      int_field e 4 ",\"node\":" node;
      int_field e 6 ",\"tag\":" tag
  | Engine.Obs_rate_change { node; rate } ->
      int_field e 4 ",\"node\":" node;
      float_field e 7 ",\"rate\":" rate
  | Engine.Obs_node_down { node } -> int_field e 4 ",\"node\":" node
  | Engine.Obs_node_up { node; wipe } ->
      int_field e 4 ",\"node\":" node;
      start_field e 8 ",\"wipe\":";
      Buffer.add_string e.buf (if wipe then "true" else "false")
  | Engine.Obs_edge_down { edge } | Engine.Obs_edge_up { edge } ->
      int_field e 2 ",\"edge\":" edge

(* Append [entry]'s line, without a newline, to the encoder's buffer. *)
let add_entry e { seq; time; obs } =
  let b = e.buf in
  Buffer.add_string b e.prefix;
  add_int b seq;
  Buffer.add_string b (if e.csv then "," else ",\"t\":");
  add_time e time;
  Buffer.add_string b (if e.csv then "," else ",\"ev\":\"");
  Buffer.add_string b (tag_of_obs obs);
  if not e.csv then Buffer.add_char b '"';
  e.cells <- 0;
  add_fields e obs;
  (* CSV: the cells the kind does not carry stay empty. *)
  if e.csv then start_field e (csv_cells - 1) "" else Buffer.add_char b '}'

let encode_line ?run format e =
  let enc = encoder ?run format in
  add_entry enc e;
  Buffer.contents enc.buf

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

let iter t f =
  match t.store with
  | Grow g ->
      for i = 0 to t.recorded - 1 do
        let cols = g.chunks.(i lsr chunk_bits) in
        let off = i land chunk_mask in
        f { seq = i; time = cols.times.(off); obs = get t cols off i }
      done
  | Ring r ->
      let cap = Array.length r.cols.packed in
      let count = min t.recorded cap in
      let start = if t.recorded > cap then r.next else 0 in
      for k = 0 to count - 1 do
        let i = start + k in
        let i = if i >= cap then i - cap else i in
        f
          {
            seq = t.recorded - count + k;
            time = r.cols.times.(i);
            obs = get t r.cols i i;
          }
      done

let entries t =
  let acc = ref [] in
  iter t (fun e -> acc := e :: !acc);
  List.rev !acc

let retained t =
  match t.store with
  | Grow _ -> t.recorded
  | Ring r -> min t.recorded (Array.length r.cols.packed)

let iter_lines ?run t f =
  let enc = encoder ?run t.format_ in
  iter t (fun e ->
      Buffer.clear enc.buf;
      add_entry enc e;
      f enc.buf)

let to_lines ?run t =
  let acc = ref [] in
  iter_lines ?run t (fun line -> acc := Buffer.contents line :: !acc);
  List.rev !acc

let to_string ?run t =
  let out = Buffer.create 4096 in
  iter_lines ?run t (fun line ->
      Buffer.add_buffer out line;
      Buffer.add_char out '\n');
  Buffer.contents out

let output ?run t oc =
  iter_lines ?run t (fun line ->
      Buffer.output_buffer oc line;
      output_char oc '\n')

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
      output ?run t oc)

(* --- JSONL parsing (the schema checker and round-trip tests) ----------- *)

type parsed = { run : int option; entry : entry }

exception Bad of string

let bad fmt = Printf.ksprintf (fun msg -> raise (Bad msg)) fmt

(* The parser reads a line where it lies: each key is matched in place
   against the keys the schema knows, and its value is kept as a span of
   the line in that key's slot. Only an unknown key, a float, or an
   integer that is not plain decimal is ever copied out. *)
let keys =
  [| "run"; "seq"; "t"; "ev"; "src"; "dst"; "edge"; "delay"; "node"; "port";
     "tag"; "rate"; "wipe" |]

let k_run = 0 and k_seq = 1 and k_t = 2 and k_ev = 3 and k_src = 4
and k_dst = 5 and k_edge = 6 and k_delay = 7 and k_node = 8 and k_port = 9
and k_tag = 10 and k_rate = 11 and k_wipe = 12

(* In the order of the packed kind tags. *)
let tags =
  [| "send"; "drop"; "deliver"; "timer"; "rate"; "node_down"; "node_up";
     "edge_down"; "edge_up"; "fault_drop"; "dup"; "corrupt"; "lie" |]

let rec same_from line a s i =
  i = String.length s
  || String.unsafe_get line (a + i) = String.unsafe_get s i
     && same_from line a s (i + 1)

(* [line.[a .. b-1]] is [s]. *)
let span_is line a b s = b - a = String.length s && same_from line a s 0

let rec index_of names line a b i =
  if i = Array.length names then -1
  else if span_is line a b names.(i) then i
  else index_of names line a b (i + 1)

let expect line pos c =
  if pos >= String.length line || String.unsafe_get line pos <> c then
    bad "expected '%c' at offset %d" c pos

(* The offset of the quote that closes a string whose bytes start at
   [pos]. *)
let rec string_end line pos =
  if pos >= String.length line then bad "unterminated string"
  else
    match String.unsafe_get line pos with
    | '"' -> pos
    | '\\' -> bad "escapes are not part of the schema"
    | _ -> string_end line (pos + 1)

let rec raw_end line pos =
  if pos >= String.length line then pos
  else
    match String.unsafe_get line pos with
    | ',' | '}' -> pos
    | _ -> raw_end line (pos + 1)

(* Flat {"key":value,...} objects only — exactly what the encoder emits.
   A value is a quote-delimited string without escapes, or the raw bytes
   up to the next ',' or '}'; either way only its bytes count, so "5"
   reads as 5. Slot [k] of [spans] gets the value's start, its end and
   its key's offset, and stays -1 while key [k] is absent. The spans of
   unknown keys are returned in line order. *)
let scan_object line spans =
  let n = String.length line in
  expect line 0 '{';
  let pos = ref 1 and unknown = ref [] in
  if !pos < n && String.unsafe_get line !pos <> '}' then begin
    let more = ref true in
    while !more do
      expect line !pos '"';
      let ka = !pos + 1 in
      let kb = string_end line ka in
      expect line (kb + 1) ':';
      let quoted = kb + 2 < n && String.unsafe_get line (kb + 2) = '"' in
      let va = if quoted then kb + 3 else kb + 2 in
      let vb = if quoted then string_end line va else raw_end line va in
      pos := if quoted then vb + 1 else vb;
      let k = index_of keys line ka kb 0 in
      if k >= 0 then begin
        if spans.(3 * k) >= 0 then bad "duplicate key %s" keys.(k);
        spans.(3 * k) <- va;
        spans.((3 * k) + 1) <- vb;
        spans.((3 * k) + 2) <- ka
      end
      else begin
        let name = String.sub line ka (kb - ka) in
        if List.exists (fun (a, b) -> span_is line a b name) !unknown then
          bad "duplicate key %s" name;
        unknown := (ka, kb) :: !unknown
      end;
      if !pos < n && String.unsafe_get line !pos = ',' then incr pos
      else more := false
    done
  end;
  expect line !pos '}';
  if !pos + 1 <> n then bad "trailing bytes after object";
  List.rev !unknown

let rec all_digits line a b =
  a >= b
  || match String.unsafe_get line a with
     | '0' .. '9' -> all_digits line (a + 1) b
     | _ -> false

let rec digits_value line a b acc =
  if a >= b then acc
  else
    digits_value line (a + 1) b
      ((acc * 10) + Char.code (String.unsafe_get line a) - 48)

(* Plain decimal — an optional '-' and 1 to 18 digits, too few to
   overflow — is read in place. Anything else goes to [int_of_string],
   whose rules on signs, base prefixes, underscores and range decide. *)
let int_value line k a b =
  let neg = a < b && String.unsafe_get line a = '-' in
  let d = if neg then a + 1 else a in
  if b - d >= 1 && b - d <= 18 && all_digits line d b then
    let v = digits_value line d b 0 in
    if neg then -v else v
  else
    let v = String.sub line a (b - a) in
    match int_of_string v with
    | i -> i
    | exception Failure _ -> bad "%s is not an integer: %s" keys.(k) v

let start spans k =
  let a = spans.(3 * k) in
  if a < 0 then bad "missing field %s" keys.(k);
  a

let int_at line spans k = int_value line k (start spans k) spans.((3 * k) + 1)

(* JSON has no inf or nan, and no run records one. *)
let float_at line spans k =
  let a = start spans k in
  let v = String.sub line a (spans.((3 * k) + 1) - a) in
  match float_of_string v with
  | x when Float.is_finite x -> x
  | _ -> bad "%s is not a finite number: %s" keys.(k) v
  | exception Failure _ -> bad "%s is not a number: %s" keys.(k) v

let bool_at line spans k =
  let a = start spans k and b = spans.((3 * k) + 1) in
  if span_is line a b "true" then true
  else if span_is line a b "false" then false
  else bad "%s is not a boolean: %s" keys.(k) (String.sub line a (b - a))

let bit k = 1 lsl k
let src_dst_edge = bit k_src lor bit k_dst lor bit k_edge

(* The observation tagged [tags.(tag)], and the slots it reads. *)
let obs_of line spans tag =
  let int = int_at line spans in
  match tag with
  | 0 ->
      ( Engine.Obs_send
          { src = int k_src; dst = int k_dst; edge = int k_edge;
            delay = float_at line spans k_delay },
        src_dst_edge lor bit k_delay )
  | 1 ->
      ( Engine.Obs_drop { src = int k_src; dst = int k_dst; edge = int k_edge },
        src_dst_edge )
  | 2 ->
      ( Engine.Obs_deliver { dst = int k_dst; port = int k_port },
        bit k_dst lor bit k_port )
  | 3 ->
      ( Engine.Obs_timer { node = int k_node; tag = int k_tag },
        bit k_node lor bit k_tag )
  | 4 ->
      ( Engine.Obs_rate_change
          { node = int k_node; rate = float_at line spans k_rate },
        bit k_node lor bit k_rate )
  | 5 -> (Engine.Obs_node_down { node = int k_node }, bit k_node)
  | 6 ->
      ( Engine.Obs_node_up
          { node = int k_node; wipe = bool_at line spans k_wipe },
        bit k_node lor bit k_wipe )
  | 7 -> (Engine.Obs_edge_down { edge = int k_edge }, bit k_edge)
  | 8 -> (Engine.Obs_edge_up { edge = int k_edge }, bit k_edge)
  | 9 ->
      ( Engine.Obs_fault_drop
          { src = int k_src; dst = int k_dst; edge = int k_edge },
        src_dst_edge )
  | 10 ->
      ( Engine.Obs_duplicate
          { src = int k_src; dst = int k_dst; edge = int k_edge },
        src_dst_edge )
  | 11 ->
      ( Engine.Obs_corrupt
          { src = int k_src; dst = int k_dst; edge = int k_edge },
        src_dst_edge )
  | _ ->
      ( Engine.Obs_lie { src = int k_src; dst = int k_dst; edge = int k_edge },
        src_dst_edge )

(* Reject the first key, in line order, that the entry did not read. *)
let check_unexpected line spans unknown used =
  let first = ref max_int and name = ref "" in
  (match unknown with
  | (ka, kb) :: _ ->
      first := ka;
      name := String.sub line ka (kb - ka)
  | [] -> ());
  for k = 0 to Array.length keys - 1 do
    let ka = spans.((3 * k) + 2) in
    if ka >= 0 && used land bit k = 0 && ka < !first then begin
      first := ka;
      name := keys.(k)
    end
  done;
  if !first < max_int then bad "unexpected field %s" !name

let spans_len = 3 * Array.length keys

(* [parse_line] with the value spans in [spans], which it resets first. *)
let parse_into spans line =
  Array.fill spans 0 spans_len (-1);
  try
    let unknown = scan_object line spans in
    let run =
      if spans.(3 * k_run) < 0 then None else Some (int_at line spans k_run)
    in
    let seq = int_at line spans k_seq in
    let time = float_at line spans k_t in
    let a = start spans k_ev and b = spans.((3 * k_ev) + 1) in
    let tag = index_of tags line a b 0 in
    if tag < 0 then bad "unknown event tag %s" (String.sub line a (b - a));
    let obs, used = obs_of line spans tag in
    check_unexpected line spans unknown
      (used lor bit k_run lor bit k_seq lor bit k_t lor bit k_ev);
    Ok { run; entry = { seq; time; obs } }
  with Bad msg -> Error msg

let parse_line line = parse_into (Array.make spans_len (-1)) line

(* [validate_line] runs on every line of a recorded log, so each domain
   keeps one spans array and one JSONL encoder for it, the encoder
   rebuilt only when the run tag changes. A reused encoder's time memo
   prints the same text for the same bits. *)
let validate_scratch =
  Domain.DLS.new_key (fun () ->
      (Array.make spans_len (-1), ref (encoder Jsonl), ref None))

let validate_line line =
  let spans, enc, enc_run = Domain.DLS.get validate_scratch in
  match parse_into spans line with
  | Error _ as e -> e
  | Ok p ->
      if not (Option.equal Int.equal p.run !enc_run) then begin
        enc := encoder ?run:p.run Jsonl;
        enc_run := p.run
      end;
      let enc = !enc in
      Buffer.clear enc.buf;
      add_entry enc p.entry;
      if String.equal (Buffer.contents enc.buf) line then Ok p
      else Error "line is valid but not in canonical form"

let same_bits x y = Int64.bits_of_float x = Int64.bits_of_float y

(* Equal observations, floats compared by bits. *)
let same_obs a b =
  match (a, b) with
  | Engine.Obs_send x, Engine.Obs_send y ->
      x.src = y.src && x.dst = y.dst && x.edge = y.edge
      && same_bits x.delay y.delay
  | Engine.Obs_rate_change x, Engine.Obs_rate_change y ->
      x.node = y.node && same_bits x.rate y.rate
  | ( Engine.Obs_drop { src; dst; edge },
      Engine.Obs_drop { src = s; dst = d; edge = g } )
  | ( Engine.Obs_fault_drop { src; dst; edge },
      Engine.Obs_fault_drop { src = s; dst = d; edge = g } )
  | ( Engine.Obs_duplicate { src; dst; edge },
      Engine.Obs_duplicate { src = s; dst = d; edge = g } )
  | ( Engine.Obs_corrupt { src; dst; edge },
      Engine.Obs_corrupt { src = s; dst = d; edge = g } )
  | ( Engine.Obs_lie { src; dst; edge },
      Engine.Obs_lie { src = s; dst = d; edge = g } ) ->
      src = s && dst = d && edge = g
  | Engine.Obs_deliver x, Engine.Obs_deliver y ->
      x.dst = y.dst && x.port = y.port
  | Engine.Obs_timer x, Engine.Obs_timer y -> x.node = y.node && x.tag = y.tag
  | Engine.Obs_node_down x, Engine.Obs_node_down y -> x.node = y.node
  | Engine.Obs_node_up x, Engine.Obs_node_up y ->
      x.node = y.node && x.wipe = y.wipe
  | Engine.Obs_edge_down { edge }, Engine.Obs_edge_down { edge = g }
  | Engine.Obs_edge_up { edge }, Engine.Obs_edge_up { edge = g } ->
      edge = g
  | _ -> false

(* The export checks each line against the entry it encoded. The line is
   that entry's encoding by construction, so when it parses back to the
   entry (floats by bits, the same run tag), re-encoding the parse gives
   the line itself and [validate_line] would accept it: the one parse
   stands for parse, re-encode and compare. Any difference goes to
   [validate_line], so every line gets exactly its verdict and message.
   The pass parses into one spans array. *)
let iter_checked_lines ?run t f =
  let enc = encoder ?run t.format_ in
  let spans = Array.make spans_len (-1) in
  iter t (fun e ->
      Buffer.clear enc.buf;
      add_entry enc e;
      let line = Buffer.contents enc.buf in
      f line
        (match parse_into spans line with
        | Ok p
          when Option.equal Int.equal p.run run
               && p.entry.seq = e.seq
               && same_bits p.entry.time e.time
               && same_obs p.entry.obs e.obs ->
            Ok p
        | Ok _ | Error _ -> validate_line line))
