(* The event log's streamed export and in-place parser, checked byte for
   byte and bit for bit against the list-based code they replaced. The
   references below are that code: a Printf float, a per-kind field list,
   a CSV row looked up column by column, and a parser that builds an assoc
   list of substrings. The reference parser has since taken the schema's
   rule that a float field must be finite, as [Event_log.parse_line] has. *)

module Engine = Gcs_sim.Engine
module Event_log = Gcs_obs.Event_log

module Reference = struct
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
    | Engine.Obs_node_up { node; wipe } ->
        [ ("node", I node); ("wipe", B wipe) ]
    | Engine.Obs_edge_down { edge } | Engine.Obs_edge_up { edge } ->
        [ ("edge", I edge) ]

  let field_to_string = function
    | I i -> string_of_int i
    | F x -> fnum x
    | B b -> if b then "true" else "false"

  let encode_jsonl ?run (e : Event_log.entry) =
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

  let encode_csv ?run (e : Event_log.entry) =
    let fields = fields_of_obs e.obs in
    let cell name =
      match List.assoc_opt name fields with
      | Some v -> field_to_string v
      | None -> ""
    in
    let row =
      [ string_of_int e.seq; fnum e.time; tag_of_obs e.obs ]
      @ List.map cell
          [ "src"; "dst"; "edge"; "delay"; "node"; "port"; "tag"; "rate";
            "wipe" ]
    in
    let row = match run with Some r -> string_of_int r :: row | None -> row in
    Gcs_util.Csv.render_row row

  let encode_line ?run format e =
    match format with
    | Event_log.Jsonl -> encode_jsonl ?run e
    | Event_log.Csv -> encode_csv ?run e

  exception Bad of string

  let parse_obj line =
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
        | Some x when Float.is_finite x -> x
        | Some _ -> raise (Bad (k ^ " is not a finite number: " ^ v))
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
            Engine.Obs_drop
              { src = int "src"; dst = int "dst"; edge = int "edge" }
        | "deliver" -> Engine.Obs_deliver { dst = int "dst"; port = int "port" }
        | "timer" -> Engine.Obs_timer { node = int "node"; tag = int "tag" }
        | "rate" ->
            Engine.Obs_rate_change { node = int "node"; rate = float "rate" }
        | "node_down" -> Engine.Obs_node_down { node = int "node" }
        | "node_up" ->
            Engine.Obs_node_up { node = int "node"; wipe = bool "wipe" }
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
      Ok { Event_log.run; entry = { Event_log.seq; time; obs } }
    with Bad msg -> Error msg

  let validate_line line =
    match parse_line line with
    | Error _ as e -> e
    | Ok p ->
        let canonical = encode_jsonl ?run:p.Event_log.run p.Event_log.entry in
        if String.equal canonical line then Ok p
        else Error "line is valid but not in canonical form"
end

(* --- Generators ------------------------------------------------------ *)

(* Ids cluster on both sides of the packed 19-bit field's limit (524,287),
   where recording switches to the escape path. *)
let gen_id =
  let open QCheck.Gen in
  frequency
    [
      (6, int_range 0 40);
      (3, int_range 524_280 524_295);
      (1, oneofl [ 524_287; 524_288; 1 lsl 30; max_int; -1; -524_288; min_int ]);
      (1, int_range 0 (1 lsl 40));
    ]

let neg_nan = Int64.float_of_bits 0xFFF8000000000000L

let gen_float =
  let open QCheck.Gen in
  frequency
    [
      ( 3,
        oneofl
          [
            0.; -0.; Float.nan; neg_nan; Float.infinity; Float.neg_infinity;
            4.9e-324; -4.9e-324; 2.2250738585072009e-308; 1e308; -1e308;
            Float.max_float; 0.5; 1.25; 40.; 1e-7; 123456789012345678.;
          ] );
      (4, map (fun k -> float_of_int k /. 64.) (int_range (-6400) 6400));
      (3, float_range 0. 1000.);
      (2, map Int64.float_of_bits ui64);
    ]

let gen_obs =
  let open QCheck.Gen in
  let* a = gen_id and* b = gen_id and* c = gen_id and* x = gen_float in
  let+ kind = int_range 0 12 and* wipe = bool in
  match kind with
  | 0 -> Engine.Obs_send { src = a; dst = b; edge = c; delay = x }
  | 1 -> Engine.Obs_drop { src = a; dst = b; edge = c }
  | 2 -> Engine.Obs_deliver { dst = a; port = b }
  | 3 -> Engine.Obs_timer { node = a; tag = b }
  | 4 -> Engine.Obs_rate_change { node = a; rate = x }
  | 5 -> Engine.Obs_node_down { node = a }
  | 6 -> Engine.Obs_node_up { node = a; wipe }
  | 7 -> Engine.Obs_edge_down { edge = a }
  | 8 -> Engine.Obs_edge_up { edge = a }
  | 9 -> Engine.Obs_fault_drop { src = a; dst = b; edge = c }
  | 10 -> Engine.Obs_duplicate { src = a; dst = b; edge = c }
  | 11 -> Engine.Obs_corrupt { src = a; dst = b; edge = c }
  | _ -> Engine.Obs_lie { src = a; dst = b; edge = c }

(* A run of observations whose times often repeat their predecessor's, as
   a send shares its timer's time; 0 then -0 must not share a text. *)
let gen_timed =
  let open QCheck.Gen in
  let* n = int_range 0 60 in
  let* obs = list_repeat n gen_obs in
  let* fresh = list_repeat n gen_float in
  let+ repeat = list_repeat n (frequencyl [ (2, true); (3, false) ])
  and+ zero_pair = bool in
  let _, times =
    List.fold_left2
      (fun (prev, acc) t rep ->
        let t = if rep then prev else t in
        (t, t :: acc))
      (0., []) fresh repeat
  in
  let timed = List.combine (List.rev times) obs in
  if zero_pair then
    (0., Engine.Obs_timer { node = 0; tag = 0 })
    :: (-0., Engine.Obs_timer { node = 1; tag = 0 })
    :: timed
  else timed

let gen_run =
  QCheck.Gen.(
    frequency
      [
        (2, return None);
        (2, map Option.some (int_range 0 9));
        (1, map Option.some gen_id);
      ])

let gen_format = QCheck.Gen.oneofl [ Event_log.Jsonl; Event_log.Csv ]

(* The entries [timed] records, in order from seq 0. *)
let entries_of timed =
  List.mapi (fun seq (time, obs) -> { Event_log.seq; time; obs }) timed

let print_timed timed =
  String.concat "\n" (List.map Reference.encode_jsonl (entries_of timed))

let fail fmt = Printf.ksprintf QCheck.Test.fail_report fmt

(* --- Encoder ----------------------------------------------------------- *)

let prop_encode_line =
  QCheck.Test.make ~name:"encode_line = reference, every kind and format"
    ~count:500
    (QCheck.make
       ~print:(fun (run, _, timed) ->
         Printf.sprintf "run %s\n%s"
           (Option.fold ~none:"none" ~some:string_of_int run)
           (print_timed timed))
       QCheck.Gen.(triple gen_run gen_format gen_timed))
    (fun (run, format, timed) ->
      List.for_all
        (fun e ->
          let got = Event_log.encode_line ?run format e
          and want = Reference.encode_line ?run format e in
          String.equal got want || fail "got  %s\nwant %s" got want)
        (entries_of timed))

let same_bits x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)

let same_obs a b =
  match (a, b) with
  | Engine.Obs_send x, Engine.Obs_send y ->
      x.src = y.src && x.dst = y.dst && x.edge = y.edge
      && same_bits x.delay y.delay
  | Engine.Obs_rate_change x, Engine.Obs_rate_change y ->
      x.node = y.node && same_bits x.rate y.rate
  | a, b -> a = b

let same_entry (a : Event_log.entry) (b : Event_log.entry) =
  a.seq = b.seq && same_bits a.time b.time && same_obs a.obs b.obs

(* Whole logs: a grown log and a ring, wrapped or not, export exactly the
   reference lines of the entries they retain (the last [capacity], with
   their seqs), through every export. *)
let prop_whole_log =
  QCheck.Test.make ~name:"log exports = reference lines of retained entries"
    ~count:300
    (QCheck.make
       ~print:(fun (_, _, capacity, timed) ->
         Printf.sprintf "capacity %s\n%s"
           (Option.fold ~none:"none" ~some:string_of_int capacity)
           (print_timed timed))
       QCheck.Gen.(quad gen_run gen_format (opt (int_range 1 40)) gen_timed))
    (fun (run, format_, capacity, timed) ->
      let log = Event_log.create ?capacity ~format_ () in
      List.iter (fun (time, obs) -> Event_log.record log time obs) timed;
      let all = entries_of timed in
      let evicted =
        Option.fold ~none:0 ~some:(fun c -> max 0 (List.length all - c)) capacity
      in
      let want = List.filteri (fun i _ -> i >= evicted) all in
      let lines = List.map (Reference.encode_line ?run format_) want in
      let text = String.concat "" (List.map (fun l -> l ^ "\n") lines) in
      let header =
        match format_ with
        | Event_log.Csv ->
            Gcs_util.Csv.render_row (Event_log.csv_header ~run:(run <> None) ())
            ^ "\n"
        | Event_log.Jsonl -> ""
      in
      let path = Filename.temp_file "event_log" ".out" in
      Event_log.write ?run log ~path;
      let written = In_channel.with_open_bin path In_channel.input_all in
      Sys.remove path;
      let got = Event_log.entries log in
      if
        not
          (List.length got = List.length want
          && List.for_all2 same_entry got want)
      then fail "entries differ"
      else if Event_log.to_lines ?run log <> lines then fail "to_lines differs"
      else if Event_log.to_string ?run log <> text then fail "to_string differs"
      else if written <> header ^ text then fail "write differs"
      else true)

(* --- Parser -------------------------------------------------------------- *)

let same_result a b =
  match (a, b) with
  | Ok (p : Event_log.parsed), Ok (q : Event_log.parsed) ->
      p.run = q.run && same_entry p.entry q.entry
  | Error _, Error _ -> true
  | _ -> false

let show_result = function
  | Ok (p : Event_log.parsed) ->
      "Ok " ^ Reference.encode_jsonl ?run:p.run p.entry
  | Error msg -> "Error " ^ msg

let odd_values =
  [
    "-0"; "007"; "+5"; "0x1F"; "1_0"; "nan"; "-nan"; "inf"; "-inf"; "infinity";
    "\"5\""; "\"0.5\""; "send"; "timer"; "\"se\\nd\""; "\"a\\\"b\""; "1e3";
    "1."; ".5"; " 1"; "1 "; ""; "\"\""; "true"; "false"; "tru"; "\"true\"";
    "4611686018427387903"; "4611686018427387904"; "-4611686018427387904";
    "-4611686018427387905"; "99999999999999999999"; "0000000000000000000001";
    "123456789012345678"; "1234567890123456789"; "-"; "--1"; "0b101"; "0o17";
    "0u5"; "1__2"; "_1"; "1e400"; "0x1p3"; "5}"; "5,\"x\":1"; "null";
  ]

let odd_keys =
  [
    "\"run\""; "\"seq\""; "\"t\""; "\"ev\""; "\"src\""; "\"x\""; "\"\"";
    "\"rate\""; "\"wipe\""; "\"tag\""; "run"; "\"se\\q\"";
  ]

let odd_bytes = "{}\",:\\0123456789-+.enatfx_ \t"

let splice line i ~drop s =
  String.sub line 0 i ^ s
  ^ String.sub line (i + drop) (String.length line - i - drop)

(* The canonical line's fields, split at the top-level commas (no value of
   the schema contains one), and the line they make. *)
let fields_of line =
  String.split_on_char ',' (String.sub line 1 (String.length line - 2))

let of_fields fields = "{" ^ String.concat "," fields ^ "}"

let key_and_rest field =
  match String.index_opt field ':' with
  | Some i -> (String.sub field 0 i, String.sub field i (String.length field - i))
  | None -> (field, "")

(* One mutation of a canonical line: a byte deleted, inserted or replaced;
   a field duplicated, dropped or swapped; a value or key replaced by an
   odd one; or bytes appended. *)
let gen_mutant line =
  let open QCheck.Gen in
  let n = String.length line in
  let fields = fields_of line in
  let field = int_bound (List.length fields - 1) in
  let byte =
    frequency
      [
        (3, map (String.get odd_bytes) (int_bound (String.length odd_bytes - 1)));
        (1, map Char.chr (int_range 32 126));
      ]
  in
  let edit f =
    map (fun i ->
        of_fields (List.mapi (fun j x -> if j = i then f x else x) fields))
  in
  frequency
    [
      (2, map (fun i -> splice line i ~drop:1 "") (int_bound (n - 1)));
      ( 2,
        map2
          (fun i c -> splice line i ~drop:0 (String.make 1 c))
          (int_bound n) byte );
      ( 2,
        map2
          (fun i c -> splice line i ~drop:1 (String.make 1 c))
          (int_bound (n - 1)) byte );
      ( 1,
        map2
          (fun i j ->
            let copy = List.nth fields i in
            of_fields
              (List.concat_map
                 (fun (p, x) -> if p = j then [ copy; x ] else [ x ])
                 (List.mapi (fun p x -> (p, x)) fields)))
          field field );
      ( 1,
        map (fun i -> of_fields (List.filteri (fun j _ -> j <> i) fields)) field
      );
      ( 1,
        map2
          (fun i j ->
            let a = List.nth fields i and b = List.nth fields j in
            of_fields
              (List.mapi
                 (fun p x -> if p = i then b else if p = j then a else x)
                 fields))
          field field );
      ( 4,
        oneofl odd_values >>= fun v ->
        edit (fun f -> fst (key_and_rest f) ^ ":" ^ v) field );
      ( 1,
        oneofl odd_keys >>= fun k ->
        edit (fun f -> k ^ snd (key_and_rest f)) field );
      (1, map (fun s -> line ^ s) (oneofl [ "x"; " "; "}"; ","; "\n"; "{}" ]));
    ]

(* A canonical line of a random entry, as it is or mutated once or twice. *)
let gen_line =
  let open QCheck.Gen in
  let* run = gen_run and* seq = gen_id and* time = gen_float and* obs = gen_obs in
  let line = Reference.encode_jsonl ?run { Event_log.seq; time; obs } in
  frequency
    [
      (1, return line);
      (6, gen_mutant line);
      (1, gen_mutant line >>= gen_mutant);
    ]

let prop_parse_line =
  QCheck.Test.make ~name:"parse_line and validate_line = reference"
    ~count:5000
    (QCheck.make ~print:(fun l -> l) gen_line)
    (fun line ->
      let got = Event_log.parse_line line
      and want = Reference.parse_line line in
      if not (same_result got want) then
        fail "parse_line: got %s, want %s" (show_result got) (show_result want)
      else
        let got = Event_log.validate_line line
        and want = Reference.validate_line line in
        same_result got want
        || fail "validate_line: got %s, want %s" (show_result got)
             (show_result want))

(* JSON has no inf or nan: each float field refuses every spelling the
   encoder could give a non-finite float, naming the field. *)
let test_non_finite () =
  List.iter
    (fun (field, line) ->
      List.iter
        (fun v ->
          let line = Printf.sprintf line v in
          let want = Error (field ^ " is not a finite number: " ^ v) in
          let verdict = function Ok _ -> Ok () | Error msg -> Error msg in
          Alcotest.(check (result unit string))
            ("parse_line " ^ line) want
            (verdict (Event_log.parse_line line));
          Alcotest.(check (result unit string))
            ("validate_line " ^ line) want
            (verdict (Event_log.validate_line line)))
        [ "inf"; "-inf"; "nan"; "-nan" ])
    [
      ("t", {|{"seq":0,"t":%s,"ev":"timer","node":1,"tag":1}|});
      ( "delay",
        {|{"seq":0,"t":1,"ev":"send","src":0,"dst":1,"edge":0,"delay":%s}|} );
      ("rate", {|{"run":3,"seq":7,"t":2.5,"ev":"rate","node":4,"rate":%s}|});
    ]

(* --- Checked export ---------------------------------------------------- *)

(* The same verdict: equal parses, or the same error message. *)
let same_verdict a b =
  match (a, b) with
  | Error m, Error n -> String.equal m n
  | _ -> same_result a b

(* The checked export writes the unchecked export's lines, and gives each
   the verdict validate_line gives it, message included: over grown and
   ring logs of every kind, with and without run tags, non-finite floats
   (which parse_line refuses) and escape-path ids among them. *)
let prop_checked_export =
  QCheck.Test.make ~name:"checked export = export + validate_line" ~count:300
    (QCheck.make
       ~print:(fun (run, _, capacity, timed) ->
         Printf.sprintf "run %s, capacity %s\n%s"
           (Option.fold ~none:"none" ~some:string_of_int run)
           (Option.fold ~none:"none" ~some:string_of_int capacity)
           (print_timed timed))
       QCheck.Gen.(quad gen_run gen_format (opt (int_range 1 40)) gen_timed))
    (fun (run, format_, capacity, timed) ->
      let log = Event_log.create ?capacity ~format_ () in
      List.iter (fun (time, obs) -> Event_log.record log time obs) timed;
      let checked = ref [] in
      Event_log.iter_checked_lines ?run log (fun line verdict ->
          checked := (line, verdict) :: !checked);
      let checked = List.rev !checked and plain = Event_log.to_lines ?run log in
      (List.length checked = List.length plain || fail "line counts differ")
      && List.for_all2
           (fun want (line, verdict) ->
             (String.equal line want || fail "got  %s\nwant %s" line want)
             &&
             let v = Event_log.validate_line line in
             same_verdict verdict v
             || fail "%s: got %s, validate_line %s" line (show_result verdict)
                  (show_result v))
           plain checked)

let suite =
  List.map QCheck_alcotest.to_alcotest
    [ prop_encode_line; prop_whole_log; prop_parse_line ]
  @ [
      Alcotest.test_case "non-finite floats are refused" `Quick
        test_non_finite;
      QCheck_alcotest.to_alcotest prop_checked_export;
    ]
