module Graph = Gcs_graph.Graph
module Topology = Gcs_graph.Topology
module Spec = Gcs_core.Spec
module Algorithm = Gcs_core.Algorithm
module Runner = Gcs_core.Runner
module Metrics = Gcs_core.Metrics
module Fault_metrics = Gcs_core.Fault_metrics
module Fault_plan = Gcs_sim.Fault_plan
module Drift = Gcs_clock.Drift
module Logical_clock = Gcs_clock.Logical_clock
module Event_log = Gcs_obs.Event_log
module Series = Gcs_obs.Series
module Capture = Gcs_obs.Capture

type config = {
  topology : Topology.spec;
  algo : Algorithm.kind;
  spec : Spec.t;
  drift : string;
  horizon : float;
  sample_period : float;
  warmup : float;
  seed : int;
  base_port : int;
  host : string;
  fault_plan : Fault_plan.t option;
  startup : float;
}

let drift_pattern s =
  match Drift.pattern_of_string s with
  | Ok p -> p
  | Error msg -> invalid_arg ("Live_run: bad drift spec: " ^ msg)

let config ?(topology = Topology.Ring 4) ?(algo = Algorithm.Gradient_sync)
    ?(spec = Spec.make ~d_min:0.005 ~d_max:0.02 ~beacon_period:0.25 ())
    ?(drift = "random") ?(horizon = 6.) ?(sample_period = 0.5) ?warmup
    ?(seed = 42) ?(base_port = 9200) ?(host = "127.0.0.1") ?fault_plan
    ?(startup = 0.5) () =
  if horizon <= 0. then invalid_arg "Live_run.config: horizon must be > 0";
  if sample_period <= 0. then
    invalid_arg "Live_run.config: sample_period must be > 0";
  if startup < 0. then invalid_arg "Live_run.config: startup must be >= 0";
  ignore (drift_pattern drift);
  let warmup = match warmup with Some w -> w | None -> horizon /. 4. in
  {
    topology;
    algo;
    spec;
    drift;
    horizon;
    sample_period;
    warmup;
    seed;
    base_port;
    host;
    fault_plan;
    startup;
  }

let build_graph cfg = Topology.build_for_seed cfg.topology ~seed:cfg.seed

type info = {
  topology : Topology.spec;
  algo : Algorithm.kind;
  horizon : float;
  sample_period : float;
  warmup : float;
  seed : int;
  fault_plan : Fault_plan.t option;
}

(* ------------------------------------------------------------------ *)
(* Child-process outcome files                                         *)

let write_outcome path (o : Live_node.outcome) =
  let oc = open_out path in
  let p fmt = Printf.fprintf oc fmt in
  p "sent %d\n" o.udp.Udp.sent;
  p "received %d\n" o.udp.Udp.received;
  p "lost %d\n" o.udp.Udp.lost;
  p "reordered %d\n" o.udp.Udp.reordered;
  p "decode_errors %d\n" o.udp.Udp.decode_errors;
  p "timers %d\n" o.timers;
  p "deliveries %d\n" o.deliveries;
  p "drops_fault %d\n" o.drops_fault;
  p "duplicates %d\n" o.duplicates;
  p "corruptions %d\n" o.corruptions;
  p "lies %d\n" o.lies;
  p "jumps_count %d\n" o.jumps.Logical_clock.count;
  p "jumps_total %.17g\n" o.jumps.Logical_clock.total_magnitude;
  p "jumps_max %.17g\n" o.jumps.Logical_clock.max_magnitude;
  p "#samples\n";
  List.iter (fun (t, v) -> p "%.17g %.17g\n" t v) o.samples;
  p "#events\n";
  Event_log.output o.events oc;
  close_out oc

type child = {
  counters : (string * float) list;
  samples : (float * float) array;
  entries : Event_log.entry list;  (** child-local order *)
}

let read_lines path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | line -> go (line :: acc)
    | exception End_of_file ->
        close_in ic;
        List.rev acc
  in
  go []

let parse_outcome path =
  let lines = read_lines path in
  let counters = ref [] in
  let samples = ref [] in
  let entries = ref [] in
  let section = ref `Counters in
  List.iter
    (fun line ->
      if line = "#samples" then section := `Samples
      else if line = "#events" then section := `Events
      else if line <> "" then
        match !section with
        | `Counters -> (
            match String.index_opt line ' ' with
            | None -> failwith ("bad outcome line: " ^ line)
            | Some i ->
                let key = String.sub line 0 i in
                let v =
                  float_of_string
                    (String.sub line (i + 1) (String.length line - i - 1))
                in
                counters := (key, v) :: !counters)
        | `Samples -> (
            match String.index_opt line ' ' with
            | None -> failwith ("bad sample line: " ^ line)
            | Some i ->
                let t = float_of_string (String.sub line 0 i) in
                let v =
                  float_of_string
                    (String.sub line (i + 1) (String.length line - i - 1))
                in
                samples := (t, v) :: !samples)
        | `Events -> (
            match Event_log.parse_line line with
            | Ok { Event_log.entry; _ } -> entries := entry :: !entries
            | Error msg -> failwith ("bad event line: " ^ msg)))
    lines;
  {
    counters = !counters;
    samples = Array.of_list (List.rev !samples);
    entries = List.rev !entries;
  }

let counter child key =
  match List.assoc_opt key child.counters with
  | Some v -> v
  | None -> failwith ("outcome file missing counter: " ^ key)

let icounter child key = int_of_float (counter child key)

(* ------------------------------------------------------------------ *)
(* Merging                                                             *)

(* Linear interpolation along a node's recorded polyline, extrapolating
   past either end with the end segment's slope: discrete rates derived
   from the grid stay convex combinations of real segment rates, so grid
   realignment cannot manufacture a rate-bound violation. *)
let interp_at (pts : (float * float) array) t =
  let k = Array.length pts in
  if k = 0 then failwith "Live_run: child recorded no samples";
  if k = 1 then snd pts.(0)
  else begin
    let i = ref 0 in
    while !i < k - 2 && fst pts.(!i + 1) < t do
      incr i
    done;
    let t0, v0 = pts.(!i) and t1, v1 = pts.(!i + 1) in
    if t1 <= t0 then v1 else v0 +. ((v1 -. v0) *. (t -. t0) /. (t1 -. t0))
  end

let grid_samples ~horizon ~period (per_node : (float * float) array array) =
  let steps = int_of_float (Float.floor ((horizon /. period) +. 1e-9)) in
  Array.init (steps + 1) (fun k ->
      let t = float_of_int k *. period in
      {
        Metrics.time = t;
        values = Array.map (fun pts -> interp_at pts t) per_node;
      })

let merge_events (per_node : Event_log.entry list array) =
  let tagged = ref [] in
  Array.iteri
    (fun node entries ->
      List.iter (fun e -> tagged := (node, e) :: !tagged) entries)
    per_node;
  let sorted =
    List.stable_sort
      (fun (n1, (e1 : Event_log.entry)) (n2, (e2 : Event_log.entry)) ->
        match Float.compare e1.Event_log.time e2.Event_log.time with
        | 0 -> (
            match compare n1 n2 with
            | 0 -> compare e1.Event_log.seq e2.Event_log.seq
            | c -> c)
        | c -> c)
      (List.rev !tagged)
  in
  let log = Event_log.create () in
  List.iter
    (fun (_, (e : Event_log.entry)) ->
      Event_log.record log e.Event_log.time e.Event_log.obs)
    sorted;
  log

type counters = {
  messages : int;
  dropped : int;
  dropped_faults : int;
  dispatches : int;
  duplicated : int;
  corrupted : int;
  lied : int;
  jumps : Logical_clock.jump_stats;
}

let build_result ~graph ~spec ~warmup ~fault_plan ~samples ~counters ~log =
  let summary =
    match Metrics.summarize_opt graph samples ~after:warmup with
    | Some s -> s
    | None -> Metrics.summarize graph samples ~after:neg_infinity
  in
  let series = Series.create () in
  Array.iter
    (fun (s : Metrics.sample) ->
      Series.record series
        {
          Series.time = s.Metrics.time;
          global_skew = Metrics.global_skew s.Metrics.values;
          local_skew = Metrics.local_skew graph s.Metrics.values;
          profile = [||];
          values = Array.copy s.Metrics.values;
          rates = [||];
          watched = [||];
        })
    samples;
  let fault_report =
    match fault_plan with
    | None -> None
    | Some plan ->
        Some
          (Fault_metrics.evaluate
             ~byzantine:(Fault_plan.byzantine_nodes plan)
             ~lied:counters.lied ~after:warmup ~spec ~graph ~samples
             ~episodes:(Fault_plan.episodes plan graph)
             ~dropped_faults:counters.dropped_faults
             ~duplicated:counters.duplicated ~corrupted:counters.corrupted ())
  in
  {
    Runner.graph;
    spec;
    samples;
    summary;
    events = Event_log.recorded log;
    messages = counters.messages;
    dropped = counters.dropped;
    dropped_faults = counters.dropped_faults;
    dispatches = counters.dispatches;
    jumps = counters.jumps;
    fault_report;
    obs = { Capture.event_log = Some log; series = Some series; profile = None };
  }

let sum f children = Array.fold_left (fun acc c -> acc + f c) 0 children

let counters_of_children children =
  {
    messages = sum (fun c -> icounter c "sent") children;
    dropped = sum (fun c -> icounter c "lost") children;
    dropped_faults = sum (fun c -> icounter c "drops_fault") children;
    dispatches =
      sum (fun c -> icounter c "deliveries" + icounter c "timers") children;
    duplicated = sum (fun c -> icounter c "duplicates") children;
    corrupted = sum (fun c -> icounter c "corruptions") children;
    lied = sum (fun c -> icounter c "lies") children;
    jumps =
      Array.fold_left
        (fun acc c ->
          {
            Logical_clock.count =
              acc.Logical_clock.count + icounter c "jumps_count";
            total_magnitude =
              acc.Logical_clock.total_magnitude +. counter c "jumps_total";
            max_magnitude =
              Float.max acc.Logical_clock.max_magnitude
                (counter c "jumps_max");
          })
        { Logical_clock.count = 0; total_magnitude = 0.; max_magnitude = 0. }
        children;
  }

(* ------------------------------------------------------------------ *)
(* Spawning                                                            *)

let fresh_dir () =
  let base = Filename.get_temp_dir_name () in
  let rec try_ i =
    let dir =
      Filename.concat base
        (Printf.sprintf "gcs-live-%d-%d" (Unix.getpid ()) i)
    in
    match Unix.mkdir dir 0o700 with
    | () -> dir
    | exception Unix.Unix_error (Unix.EEXIST, _, _) -> try_ (i + 1)
  in
  try_ 0

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter
        (fun name -> rm_rf (Filename.concat path name))
        (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error _ -> ()

let run cfg =
  let graph = build_graph cfg in
  let pattern = drift_pattern cfg.drift in
  (match cfg.fault_plan with
  | None -> ()
  | Some plan -> (
      match Fault_plan.validate plan graph with
      | Ok () -> ()
      | Error msg -> invalid_arg ("Live_run.run: invalid fault plan: " ^ msg)));
  let n = Graph.n graph in
  let dir = fresh_dir () in
  let t0 = Wall.now () +. cfg.startup in
  flush stdout;
  flush stderr;
  let child_path v = Filename.concat dir (Printf.sprintf "node%d.txt" v) in
  let pids =
    Array.init n (fun v ->
        match Unix.fork () with
        | 0 ->
            (* Child: run the node, persist the outcome, and leave without
               touching the parent's buffered channels. *)
            let code =
              try
                let outcome =
                  Live_node.run
                    {
                      Live_node.node = v;
                      graph;
                      spec = cfg.spec;
                      algo = cfg.algo;
                      drift_of_node = (fun _ -> pattern);
                      seed = cfg.seed;
                      t0;
                      horizon = cfg.horizon;
                      sample_period = cfg.sample_period;
                      base_port = cfg.base_port;
                      host = cfg.host;
                      fault_plan = cfg.fault_plan;
                    }
                in
                write_outcome (child_path v) outcome;
                0
              with e ->
                Printf.eprintf "live node %d: %s\n%!" v
                  (Printexc.to_string e);
                1
            in
            Unix._exit code
        | pid -> pid)
  in
  let failed = ref [] in
  Array.iteri
    (fun v pid ->
      let rec wait () =
        match Unix.waitpid [] pid with
        | _, Unix.WEXITED 0 -> ()
        | _, _ -> failed := v :: !failed
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
      in
      wait ())
    pids;
  (match !failed with
  | [] -> ()
  | vs ->
      rm_rf dir;
      failwith
        (Printf.sprintf "Live_run: node(s) %s failed"
           (String.concat ", " (List.map string_of_int (List.rev vs)))));
  let children = Array.init n (fun v -> parse_outcome (child_path v)) in
  rm_rf dir;
  let log = merge_events (Array.map (fun c -> c.entries) children) in
  let samples =
    grid_samples ~horizon:cfg.horizon ~period:cfg.sample_period
      (Array.map (fun c -> c.samples) children)
  in
  build_result ~graph ~spec:cfg.spec ~warmup:cfg.warmup
    ~fault_plan:cfg.fault_plan ~samples
    ~counters:(counters_of_children children)
    ~log

(* ------------------------------------------------------------------ *)
(* Recorded-run directories                                            *)

let mkdir_p dir =
  let rec go d =
    if d <> "" && d <> "." && d <> "/" && not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      try Unix.mkdir d 0o755
      with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  go dir

let meta_of_config cfg (result : Runner.result) =
  let spec = cfg.spec in
  let b = Buffer.create 512 in
  let p fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  p "schema 1";
  p "topology %s" (Topology.spec_name cfg.topology);
  p "algo %s" (Algorithm.kind_name cfg.algo);
  p "drift %s" cfg.drift;
  p "horizon %.17g" cfg.horizon;
  p "sample_period %.17g" cfg.sample_period;
  p "warmup %.17g" cfg.warmup;
  p "seed %d" cfg.seed;
  p "rho %.17g" spec.Spec.rho;
  p "mu %.17g" spec.Spec.mu;
  p "d_min %.17g" (Spec.d_min spec);
  p "d_max %.17g" (Spec.d_max spec);
  p "beacon_period %.17g" spec.Spec.beacon_period;
  p "kappa %.17g" spec.Spec.kappa;
  p "staleness_limit %.17g" spec.Spec.staleness_limit;
  (match cfg.fault_plan with
  | Some plan -> p "fault_plan %s" (Fault_plan.to_string plan)
  | None -> ());
  p "messages %d" result.Runner.messages;
  p "dropped %d" result.Runner.dropped;
  p "dropped_faults %d" result.Runner.dropped_faults;
  p "dispatches %d" result.Runner.dispatches;
  p "duplicated %d"
    (match result.Runner.fault_report with
    | Some r -> r.Fault_metrics.duplicated
    | None -> 0);
  p "corrupted %d"
    (match result.Runner.fault_report with
    | Some r -> r.Fault_metrics.corrupted
    | None -> 0);
  p "lied %d"
    (match result.Runner.fault_report with
    | Some r -> r.Fault_metrics.lied
    | None -> 0);
  p "jumps_count %d" result.Runner.jumps.Logical_clock.count;
  p "jumps_total %.17g" result.Runner.jumps.Logical_clock.total_magnitude;
  p "jumps_max %.17g" result.Runner.jumps.Logical_clock.max_magnitude;
  Buffer.contents b

let save cfg (result : Runner.result) ~dir =
  mkdir_p dir;
  (match result.Runner.obs.Capture.event_log with
  | Some log -> Event_log.write log ~path:(Filename.concat dir "events.jsonl")
  | None -> ());
  let oc = open_out (Filename.concat dir "samples.csv") in
  let n = Graph.n result.Runner.graph in
  Printf.fprintf oc "time%s\n"
    (String.concat ""
       (List.init n (fun v -> Printf.sprintf ",node%d" v)));
  Array.iter
    (fun (s : Metrics.sample) ->
      Printf.fprintf oc "%.17g" s.Metrics.time;
      Array.iter (fun v -> Printf.fprintf oc ",%.17g" v) s.Metrics.values;
      Printf.fprintf oc "\n")
    result.Runner.samples;
  close_out oc;
  let oc = open_out (Filename.concat dir "meta") in
  output_string oc (meta_of_config cfg result);
  close_out oc

let load dir =
  try
    let meta_path = Filename.concat dir "meta" in
    let events_path = Filename.concat dir "events.jsonl" in
    let samples_path = Filename.concat dir "samples.csv" in
    if not (Sys.file_exists meta_path) then
      Error (dir ^ ": not a recorded run (no meta file)")
    else begin
      let meta = Hashtbl.create 32 in
      List.iter
        (fun line ->
          if line <> "" then
            match String.index_opt line ' ' with
            | None -> ()
            | Some i ->
                Hashtbl.replace meta (String.sub line 0 i)
                  (String.sub line (i + 1) (String.length line - i - 1)))
        (read_lines meta_path);
      let get key =
        match Hashtbl.find_opt meta key with
        | Some v -> v
        | None -> failwith ("meta: missing key " ^ key)
      in
      let getf key = float_of_string (get key) in
      let geti key = int_of_string (get key) in
      let topology =
        match Topology.spec_of_string (get "topology") with
        | Ok s -> s
        | Error msg -> failwith ("meta: " ^ msg)
      in
      let algo =
        match Algorithm.kind_of_string (get "algo") with
        | Ok a -> a
        | Error msg -> failwith ("meta: " ^ msg)
      in
      let fault_plan =
        match Hashtbl.find_opt meta "fault_plan" with
        | None -> None
        | Some s -> (
            match Fault_plan.of_string s with
            | Ok p -> Some p
            | Error msg -> failwith ("meta: " ^ msg))
      in
      let spec =
        Spec.make ~rho:(getf "rho") ~mu:(getf "mu") ~d_min:(getf "d_min")
          ~d_max:(getf "d_max") ~beacon_period:(getf "beacon_period")
          ~kappa:(getf "kappa") ~staleness_limit:(getf "staleness_limit") ()
      in
      let seed = geti "seed" in
      let graph = Topology.build_for_seed topology ~seed in
      let samples =
        match read_lines samples_path with
        | [] | [ _ ] -> failwith "samples.csv: no data rows"
        | _header :: rows ->
            Array.of_list
              (List.map
                 (fun row ->
                   match String.split_on_char ',' row with
                   | time :: values ->
                       {
                         Metrics.time = float_of_string time;
                         values =
                           Array.of_list (List.map float_of_string values);
                       }
                   | [] -> failwith "samples.csv: empty row")
                 rows)
      in
      let log = Event_log.create () in
      if Sys.file_exists events_path then
        List.iter
          (fun line ->
            if line <> "" then
              match Event_log.parse_line line with
              | Ok { Event_log.entry; _ } ->
                  Event_log.record log entry.Event_log.time
                    entry.Event_log.obs
              | Error msg -> failwith ("events.jsonl: " ^ msg))
          (read_lines events_path);
      let counters =
        {
          messages = geti "messages";
          dropped = geti "dropped";
          dropped_faults = geti "dropped_faults";
          dispatches = geti "dispatches";
          duplicated = geti "duplicated";
          corrupted = geti "corrupted";
          lied = geti "lied";
          jumps =
            {
              Logical_clock.count = geti "jumps_count";
              total_magnitude = getf "jumps_total";
              max_magnitude = getf "jumps_max";
            };
        }
      in
      let warmup = getf "warmup" in
      let info =
        {
          topology;
          algo;
          horizon = getf "horizon";
          sample_period = getf "sample_period";
          warmup;
          seed;
          fault_plan;
        }
      in
      Ok
        ( info,
          build_result ~graph ~spec ~warmup ~fault_plan ~samples ~counters
            ~log )
    end
  with
  | Failure msg -> Error msg
  | Sys_error msg -> Error msg
