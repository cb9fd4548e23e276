module Key = Gcs_store.Key
module Runner = Gcs_core.Runner
module Search = Gcs_adversary.Search

let magic = "gcs.check:repro:1"

type t = {
  monitor : Monitor.spec;
  expected : Monitor.violation;
  segment_len : float;
  moves : Search.move list;
  key : Key.t;
}

type verdict = Reproduced | Diverged of Monitor.violation | Missing

(* ---------------------------------------------------------------- *)
(* Codec: versioned header lines, then the key's own canonical
   encoding verbatim. Floats go through %.17g (exact round-trip), so a
   replayed run compares its violation to the expected one with plain
   structural equality. *)

let fl = Gcs_util.Table.fmt_17g

let move_to_string { Search.fast_side; bias } =
  let c1 = match fast_side with `Left -> 'L' | `Right -> 'R' | `None -> 'N' in
  let c2 =
    match bias with `Forward -> 'F' | `Backward -> 'B' | `Neutral -> 'N'
  in
  Printf.sprintf "%c%c" c1 c2

let move_of_string s =
  if String.length s <> 2 then Error (Printf.sprintf "bad move %S" s)
  else
    match
      ( (match s.[0] with
        | 'L' -> Some `Left
        | 'R' -> Some `Right
        | 'N' -> Some `None
        | _ -> None),
        match s.[1] with
        | 'F' -> Some `Forward
        | 'B' -> Some `Backward
        | 'N' -> Some `Neutral
        | _ -> None )
    with
    | Some fast_side, Some bias -> Ok { Search.fast_side; bias }
    | _ -> Error (Printf.sprintf "bad move %S" s)

let moves_to_string moves = String.concat ";" (List.map move_to_string moves)

let moves_of_string s =
  if s = "" then Ok []
  else
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | piece :: rest -> (
          match move_of_string piece with
          | Ok m -> go (m :: acc) rest
          | Error e -> Error e)
    in
    go [] (String.split_on_char ';' s)

let to_string t =
  let b = Buffer.create 1024 in
  let line k v = Buffer.add_string b (k ^ "=" ^ v ^ "\n") in
  Buffer.add_string b (magic ^ "\n");
  line "kind" (Monitor.kind_name t.expected.Monitor.kind);
  line "time" (fl t.expected.Monitor.time);
  line "node" (string_of_int t.expected.Monitor.node);
  line "peer"
    (match t.expected.Monitor.peer with
    | None -> "-"
    | Some p -> string_of_int p);
  line "observed" (fl t.expected.Monitor.observed);
  line "bound" (fl t.expected.Monitor.bound);
  line "detail" t.expected.Monitor.detail;
  line "context" t.expected.Monitor.context;
  line "rate_lo" (fl t.monitor.Monitor.rate_lo);
  line "rate_hi" (fl t.monitor.Monitor.rate_hi);
  line "check_rate" (if t.monitor.Monitor.check_rate then "1" else "0");
  line "check_monotonic"
    (if t.monitor.Monitor.check_monotonic then "1" else "0");
  line "skew_bound"
    (match t.monitor.Monitor.skew_bound with None -> "-" | Some s -> fl s);
  line "after" (fl t.monitor.Monitor.after);
  line "segment_len" (fl t.segment_len);
  line "moves" (moves_to_string t.moves);
  (* Byzantine fields are emitted only when set, so pre-Byzantine repro
     files (and their pinned fixtures) keep their exact bytes. *)
  if t.monitor.Monitor.byzantine <> [] then
    line "byzantine"
      (String.concat "," (List.map string_of_int t.monitor.Monitor.byzantine));
  (match t.monitor.Monitor.containment_bound with
  | None -> ()
  | Some cb -> line "containment_bound" (fl cb));
  (* Edge-age fields, same deal: only churned repros carry them. *)
  (match t.monitor.Monitor.edge_age with
  | None -> ()
  | Some ea ->
      line "edge_age"
        (Printf.sprintf "%s,%s,%s"
           (fl ea.Monitor.fresh_bound)
           (fl ea.Monitor.settled_bound)
           (fl ea.Monitor.tighten_rate));
      if ea.Monitor.windows <> [] then
        line "edge_age_windows"
          (String.concat ";"
             (List.map
                (fun ((u, v), ivs) ->
                  Printf.sprintf "%d-%d@%s" u v
                    (String.concat ","
                       (List.map
                          (fun (a, b) ->
                            Printf.sprintf "%s..%s" (fl a) (fl b))
                          ivs)))
                ea.Monitor.windows)));
  Buffer.add_string b "key:\n";
  Buffer.add_string b (Key.encode t.key);
  Buffer.contents b

let ( let* ) = Result.bind

let field name line =
  let prefix = name ^ "=" in
  let pl = String.length prefix in
  if String.length line >= pl && String.sub line 0 pl = prefix then
    Ok (String.sub line pl (String.length line - pl))
  else Error (Printf.sprintf "repro: expected %s=..., got %S" name line)

let float_field name line =
  let* v = field name line in
  match float_of_string_opt v with
  | Some f -> Ok f
  | None -> Error (Printf.sprintf "repro: bad float in %s: %S" name v)

let bool_field name line =
  let* v = field name line in
  match v with
  | "1" -> Ok true
  | "0" -> Ok false
  | _ -> Error (Printf.sprintf "repro: bad flag in %s: %S" name v)

let of_string s =
  match String.split_on_char '\n' s with
  | m :: rest when m = magic -> (
      match rest with
      | kind :: time :: node :: peer :: observed :: bound :: detail :: context
        :: rate_lo :: rate_hi :: check_rate :: check_monotonic :: skew_bound
        :: after :: segment_len :: moves :: rest ->
          let* kind_s = field "kind" kind in
          let* kind = Monitor.kind_of_string kind_s in
          let* time = float_field "time" time in
          let* node_s = field "node" node in
          let* node =
            match int_of_string_opt node_s with
            | Some n -> Ok n
            | None -> Error (Printf.sprintf "repro: bad node %S" node_s)
          in
          let* peer_s = field "peer" peer in
          let* peer =
            if peer_s = "-" then Ok None
            else
              match int_of_string_opt peer_s with
              | Some p -> Ok (Some p)
              | None -> Error (Printf.sprintf "repro: bad peer %S" peer_s)
          in
          let* observed = float_field "observed" observed in
          let* bound = float_field "bound" bound in
          let* detail = field "detail" detail in
          let* context = field "context" context in
          let* rate_lo = float_field "rate_lo" rate_lo in
          let* rate_hi = float_field "rate_hi" rate_hi in
          let* check_rate = bool_field "check_rate" check_rate in
          let* check_monotonic = bool_field "check_monotonic" check_monotonic in
          let* skew_s = field "skew_bound" skew_bound in
          let* skew_bound =
            if skew_s = "-" then Ok None
            else
              match float_of_string_opt skew_s with
              | Some f -> Ok (Some f)
              | None -> Error (Printf.sprintf "repro: bad skew_bound %S" skew_s)
          in
          let* after = float_field "after" after in
          let* segment_len = float_field "segment_len" segment_len in
          let* moves_s = field "moves" moves in
          let* moves = moves_of_string moves_s in
          (* Optional Byzantine lines (absent in pre-Byzantine files). *)
          let opt_line name rest =
            let prefix = name ^ "=" in
            let pl = String.length prefix in
            match rest with
            | line :: tl
              when String.length line >= pl && String.sub line 0 pl = prefix
              ->
                (Some (String.sub line pl (String.length line - pl)), tl)
            | _ -> (None, rest)
          in
          let byz_s, rest = opt_line "byzantine" rest in
          let cb_s, rest = opt_line "containment_bound" rest in
          let* byzantine =
            match byz_s with
            | None -> Ok []
            | Some s ->
                List.fold_left
                  (fun acc piece ->
                    let* acc = acc in
                    match int_of_string_opt piece with
                    | Some v -> Ok (acc @ [ v ])
                    | None ->
                        Error (Printf.sprintf "repro: bad byzantine %S" piece))
                  (Ok [])
                  (String.split_on_char ',' s)
          in
          let* containment_bound =
            match cb_s with
            | None -> Ok None
            | Some s -> (
                match float_of_string_opt s with
                | Some f -> Ok (Some f)
                | None ->
                    Error (Printf.sprintf "repro: bad containment_bound %S" s))
          in
          let ea_s, rest = opt_line "edge_age" rest in
          let eaw_s, rest = opt_line "edge_age_windows" rest in
          let* edge_age =
            match ea_s with
            | None -> Ok None
            | Some s -> (
                match
                  String.split_on_char ',' s |> List.map float_of_string_opt
                with
                | [ Some fresh_bound; Some settled_bound; Some tighten_rate ]
                  ->
                    let parse_interval piece =
                      (* a..b: the separator is the first double dot. *)
                      let n = String.length piece in
                      let rec dots i =
                        if i + 1 >= n then None
                        else if piece.[i] = '.' && piece.[i + 1] = '.' then
                          Some i
                        else dots (i + 1)
                      in
                      match dots 0 with
                      | None ->
                          Error
                            (Printf.sprintf "repro: bad interval %S" piece)
                      | Some i -> (
                          match
                            ( float_of_string_opt (String.sub piece 0 i),
                              float_of_string_opt
                                (String.sub piece (i + 2) (n - i - 2)) )
                          with
                          | Some a, Some b -> Ok (a, b)
                          | _ ->
                              Error
                                (Printf.sprintf "repro: bad interval %S"
                                   piece))
                    in
                    let parse_pair piece =
                      match String.index_opt piece '@' with
                      | None ->
                          Error
                            (Printf.sprintf "repro: bad edge windows %S" piece)
                      | Some at -> (
                          let pair = String.sub piece 0 at in
                          let ivs =
                            String.sub piece (at + 1)
                              (String.length piece - at - 1)
                          in
                          match String.split_on_char '-' pair with
                          | [ u; v ] -> (
                              match
                                (int_of_string_opt u, int_of_string_opt v)
                              with
                              | Some u, Some v ->
                                  let* ivs =
                                    List.fold_left
                                      (fun acc p ->
                                        let* acc = acc in
                                        let* iv = parse_interval p in
                                        Ok (acc @ [ iv ]))
                                      (Ok [])
                                      (String.split_on_char ',' ivs)
                                  in
                                  Ok ((u, v), ivs)
                              | _ ->
                                  Error
                                    (Printf.sprintf "repro: bad edge pair %S"
                                       pair))
                          | _ ->
                              Error
                                (Printf.sprintf "repro: bad edge pair %S" pair)
                          )
                    in
                    let* windows =
                      match eaw_s with
                      | None -> Ok []
                      | Some s ->
                          List.fold_left
                            (fun acc piece ->
                              let* acc = acc in
                              let* w = parse_pair piece in
                              Ok (acc @ [ w ]))
                            (Ok [])
                            (String.split_on_char ';' s)
                    in
                    Ok
                      (Some
                         {
                           Monitor.fresh_bound;
                           settled_bound;
                           tighten_rate;
                           windows;
                         })
                | _ -> Error (Printf.sprintf "repro: bad edge_age %S" s))
          in
          let* key_lines =
            match rest with
            | key_marker :: key_lines when key_marker = "key:" -> Ok key_lines
            | _ -> Error "repro: truncated header"
          in
          let* key = Key.decode (String.concat "\n" key_lines) in
          Ok
            {
              monitor =
                {
                  Monitor.rate_lo;
                  rate_hi;
                  check_rate;
                  check_monotonic;
                  skew_bound;
                  after;
                  mode = `Record;
                  byzantine;
                  containment_bound;
                  edge_age;
                };
              expected =
                {
                  Monitor.time;
                  kind;
                  node;
                  peer;
                  observed;
                  bound;
                  detail;
                  context;
                };
              segment_len;
              moves;
              key;
            }
      | _ -> Error "repro: truncated header")
  | _ -> Error (Printf.sprintf "repro: expected magic %S" magic)

let save ~path t =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (to_string t));
  Sys.rename tmp path

let load path =
  match In_channel.with_open_bin path In_channel.input_all with
  | s -> of_string s
  | exception Sys_error e -> Error e

(* ---------------------------------------------------------------- *)

let replay t =
  match Runner.config_of_key t.key with
  | Error e -> Error e
  | Ok cfg -> (
      try
        let checked =
          Check_run.run
            ~monitor:{ t.monitor with Monitor.mode = `Record }
            ~moves:t.moves ~segment_len:t.segment_len cfg
        in
        Ok
          (match checked.Check_run.violation with
          | None -> Missing
          | Some v -> if v = t.expected then Reproduced else Diverged v)
      with Invalid_argument e -> Error e)

let report t outcome =
  let b = Buffer.create 512 in
  let add fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  add "repro %s" (Key.hash t.key);
  add "  config    : topo=%s algo=%s seed=%d horizon=%s"
    (Gcs_graph.Topology.spec_name t.key.Key.topology)
    t.key.Key.algo t.key.Key.seed (fl t.key.Key.horizon);
  (match t.key.Key.fault_plan with
  | None -> ()
  | Some p -> add "  faults    : %s" (Gcs_sim.Fault_plan.to_string p));
  if t.moves <> [] then
    add "  adversary : %d moves of %s (%s)" (List.length t.moves)
      (fl t.segment_len) (moves_to_string t.moves);
  add "  expected  : %s" (Monitor.violation_to_string t.expected);
  (match outcome with
  | Ok Reproduced -> add "  verdict   : REPRODUCED"
  | Ok Missing -> add "  verdict   : MISSING (replay ran clean)"
  | Ok (Diverged v) ->
      add "  verdict   : DIVERGED";
      add "  observed  : %s" (Monitor.violation_to_string v)
  | Error e -> add "  verdict   : ERROR (%s)" e);
  Buffer.contents b
