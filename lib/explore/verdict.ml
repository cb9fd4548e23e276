module Monitor = Gcs_check.Monitor
module Repro = Gcs_check.Repro
module Shrink = Gcs_check.Shrink
module Topology = Gcs_graph.Topology
module Algorithm = Gcs_core.Algorithm

let record_monitor (inst : Instance.t) =
  { inst.Instance.monitor with Monitor.mode = `Record }

let candidate (inst : Instance.t) trace =
  {
    Shrink.key = Instance.key inst ~depth:(List.length trace);
    segment_len = inst.Instance.segment_len;
    moves = trace;
  }

let repro_of_candidate inst (c : Shrink.candidate) ~violation =
  {
    Repro.monitor = record_monitor inst;
    expected = violation;
    segment_len = c.Shrink.segment_len;
    moves = c.Shrink.moves;
    key = c.Shrink.key;
  }

let repro inst ~trace ~violation =
  repro_of_candidate inst (candidate inst trace) ~violation

let shrink ?max_evaluations inst ~trace =
  Shrink.shrink ?max_evaluations
    ~monitor:(record_monitor inst)
    (candidate inst trace)

(* ---------------------------------------------------------------- *)
(* JSON rendering                                                   *)

let escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let str s = Printf.sprintf "\"%s\"" (escape s)
let fl = Gcs_util.Table.fmt_17g
let obj fields =
  "{"
  ^ String.concat "," (List.map (fun (k, v) -> str k ^ ":" ^ v) fields)
  ^ "}"

let violation_json (v : Monitor.violation) =
  obj
    [
      ("time", fl v.Monitor.time);
      ("kind", str (Monitor.kind_name v.Monitor.kind));
      ("node", string_of_int v.Monitor.node);
      ( "peer",
        match v.Monitor.peer with
        | None -> "null"
        | Some p -> string_of_int p );
      ("observed", fl v.Monitor.observed);
      ("bound", fl v.Monitor.bound);
      ("detail", str v.Monitor.detail);
    ]

let to_json (inst : Instance.t) (o : Explorer.outcome) =
  let m = inst.Instance.monitor in
  let instance =
    obj
      [
        ("topology", str (Topology.spec_name inst.Instance.topology));
        ("algo", str (Algorithm.kind_name inst.Instance.algo));
        ("nodes", string_of_int (Instance.nodes inst));
        ("seed", string_of_int inst.Instance.seed);
        ("depth", string_of_int inst.Instance.depth);
        ("segment_len", fl inst.Instance.segment_len);
        ("alphabet", str (Choice.alphabet_to_string inst.Instance.alphabet));
        ("alphabet_size", string_of_int (List.length inst.Instance.alphabet));
        ("horizon", fl (Instance.horizon inst ~depth:inst.Instance.depth));
        ( "monitor",
          obj
            [
              ("rate_lo", fl m.Monitor.rate_lo);
              ("rate_hi", fl m.Monitor.rate_hi);
              ("check_rate", string_of_bool m.Monitor.check_rate);
              ("check_monotonic", string_of_bool m.Monitor.check_monotonic);
              ( "skew_bound",
                match m.Monitor.skew_bound with
                | None -> "null"
                | Some b -> fl b );
              ("after", fl m.Monitor.after);
            ] );
      ]
  in
  let exploration =
    obj
      [
        ("strategy", str (Explorer.strategy_name o.Explorer.strategy));
        ("dedup", string_of_bool o.Explorer.dedup);
        ("quantum", fl o.Explorer.quantum);
        ("max_states", string_of_int o.Explorer.max_states);
      ]
  in
  let s = o.Explorer.stats in
  let stats =
    obj
      [
        ("states_visited", string_of_int s.Explorer.states_visited);
        ("executions", string_of_int s.Explorer.executions);
        ("pruned", string_of_int s.Explorer.pruned);
        ("distinct_states", string_of_int s.Explorer.distinct_states);
        ("max_depth", string_of_int s.Explorer.max_depth);
        ( "frontier_high_water",
          string_of_int s.Explorer.frontier_high_water );
        ("events_checked", string_of_int s.Explorer.events_checked);
      ]
  in
  let verdict =
    match o.Explorer.verdict with
    | Explorer.Proved -> obj [ ("status", str "proved") ]
    | Explorer.Budget_exhausted -> obj [ ("status", str "budget_exhausted") ]
    | Explorer.Violated { trace; violation } ->
        obj
          [
            ("status", str "violated");
            ("trace", str (Choice.trace_to_string trace));
            ("violation", violation_json violation);
          ]
  in
  obj
    [
      ("instance", instance);
      ("exploration", exploration);
      ("stats", stats);
      ("verdict", verdict);
    ]
