(* Traced in-process mirror of the benchmark's workloads.

   Each workload command of gcs-cli is replayed here by calling the same
   public library functions in the same order as bin/gcs_cli.ml does, with
   a span around every call into a layer. The mirror writes its own copy
   of every output the command produces (summary lines, CSV bytes, check
   verdict, event log), and the harness compares those bytes with the
   CLI's, so the mirror cannot drift from the command unnoticed.

   Usage:
     mirror.exe run   --topology T --horizon H --seed S --out DIR
     mirror.exe sweep --topologies T,.. --seeds K --horizon H --seed S
                      --store DIR --out DIR
     mirror.exe churn --algo A --topology T --horizon H --churn PLAN
                      --seed S --out DIR

   It writes into DIR:
     spans.jsonl  one span per line: id, name, parent (-1 at top), cell,
                  start, end (seconds since the mirror started)
     counts.json  exact counters read from the engine, store and monitor
   plus the command outputs named per workload below. Spans are kept in
   memory and written when the mirror ends. *)

module Graph = Gcs_graph.Graph
module Topology = Gcs_graph.Topology
module Shortest_path = Gcs_graph.Shortest_path
module Drift = Gcs_clock.Drift
module Lc = Gcs_clock.Logical_clock
module Prng = Gcs_util.Prng
module Engine = Gcs_sim.Engine
module Churn_plan = Gcs_sim.Churn_plan
module Spec = Gcs_core.Spec
module Algorithm = Gcs_core.Algorithm
module Runner = Gcs_core.Runner
module Metrics = Gcs_core.Metrics
module Bounds = Gcs_core.Bounds
module Report = Gcs_core.Report
module Replicate = Gcs_core.Replicate
module Capture = Gcs_obs.Capture
module Event_log = Gcs_obs.Event_log
module Store = Gcs_store.Store
module Monitor = Gcs_check.Monitor
module Check_run = Gcs_check.Check_run

(* ---------------------------------------------------------------- *)
(* Spans and counters                                               *)

type span = {
  id : int;
  name : string;
  parent : int;
  cell : int;
  start : float;
  stop : float;
}

let t_origin = Unix.gettimeofday ()
let spans : span list ref = ref []
let open_spans : int list ref = ref []
let next_id = ref 0
let current_cell = ref 0

let span name f =
  let id = !next_id in
  incr next_id;
  let parent = match !open_spans with p :: _ -> p | [] -> -1 in
  let cell = !current_cell in
  open_spans := id :: !open_spans;
  let start = Unix.gettimeofday () -. t_origin in
  Fun.protect
    ~finally:(fun () ->
      open_spans := List.tl !open_spans;
      let stop = Unix.gettimeofday () -. t_origin in
      spans := { id; name; parent; cell; start; stop } :: !spans)
    f

let counts : (string, float) Hashtbl.t = Hashtbl.create 32
let order : string list ref = ref []

let add name v =
  match Hashtbl.find_opt counts name with
  | Some x -> Hashtbl.replace counts name (x +. v)
  | None ->
      order := name :: !order;
      Hashtbl.replace counts name v

let set_max name v =
  match Hashtbl.find_opt counts name with
  | Some x -> Hashtbl.replace counts name (Float.max x v)
  | None ->
      order := name :: !order;
      Hashtbl.replace counts name v

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let write_trace dir =
  let b = Buffer.create 4096 in
  List.iter
    (fun s ->
      Printf.bprintf b
        "{\"id\":%d,\"name\":%S,\"parent\":%d,\"cell\":%d,\"start\":%.9f,\"end\":%.9f}\n"
        s.id s.name s.parent s.cell s.start s.stop)
    (List.rev !spans);
  write_file (Filename.concat dir "spans.jsonl") (Buffer.contents b);
  let fields =
    List.rev_map
      (fun k -> Printf.sprintf "%S: %.17g" k (Hashtbl.find counts k))
      !order
  in
  write_file
    (Filename.concat dir "counts.json")
    ("{" ^ String.concat ", " fields ^ "}\n")

(* ---------------------------------------------------------------- *)
(* Shared pieces of the CLI, mirrored                               *)

(* gcs-cli's spec_term with every flag at its default. *)
let spec =
  Spec.make ~rho:0.01 ~mu:0.1 ~d_min:0.5 ~d_max:1.5 ~beacon_period:1. ()

let build_graph topo seed =
  span "graph.build" (fun () ->
      Topology.build topo ~rng:(Prng.create ~seed:(seed lxor 0x5eed)))

let compile_churn churn ~graph ~seed ~horizon =
  span "sim.churn_compile" (fun () ->
      Churn_plan.compile churn ~graph ~seed ~horizon)

let diameter graph =
  span "graph.diameter" (fun () -> Shortest_path.diameter graph)

let engine_counts (live : Runner.live) =
  let e = live.Runner.engine in
  add "sim.events" (float (Engine.events_processed e));
  add "sim.deliver" (float (Engine.dispatch_count e Engine.Dispatch_deliver));
  add "sim.timer" (float (Engine.dispatch_count e Engine.Dispatch_timer));
  add "sim.control" (float (Engine.dispatch_count e Engine.Dispatch_control));
  add "sim.messages" (float (Engine.messages_sent e));
  add "sim.fault_drops" (float (Engine.messages_dropped_faults e));
  set_max "sim.queue_high_water" (float (Engine.heap_high_water e))

(* Runner.run, split at its public seams: prepare, Engine.run_until, then
   complete (whose own run_until is then a no-op — the engine only
   advances monotonically, which is also how the profiler splits a run). *)
let simulate ?(attach = fun _ -> ()) (cfg : Runner.config) =
  span "core.cell" (fun () ->
      let live = span "core.prepare" (fun () -> Runner.prepare cfg) in
      attach live;
      span "sim.run" (fun () ->
          Engine.run_until live.Runner.engine cfg.Runner.horizon);
      let r = span "core.complete" (fun () -> Runner.complete live) in
      engine_counts live;
      (live, r))

(* ---------------------------------------------------------------- *)
(* run-grid: gcs-cli run -t T --horizon H --seed S                    *)

let print_summary b ~graph (r : Runner.result) =
  let d = diameter graph in
  span "core.report" (fun () ->
      let s = r.Runner.summary in
      Printf.bprintf b "nodes %d, edges %d, diameter %d, u = %g, kappa = %.4f\n"
        (Graph.n graph) (Graph.m graph) d (Spec.uncertainty spec)
        spec.Spec.kappa;
      Printf.bprintf b "max local skew    : %.4f\n" s.Metrics.max_local;
      Printf.bprintf b "mean local skew   : %.4f\n" s.Metrics.mean_local;
      Printf.bprintf b "p99 local skew    : %.4f\n" s.Metrics.p99_local;
      Printf.bprintf b "max global skew   : %.4f\n" s.Metrics.max_global;
      Printf.bprintf b "final local skew  : %.4f\n" s.Metrics.final_local;
      Printf.bprintf b "final global skew : %.4f\n" s.Metrics.final_global;
      Printf.bprintf b "messages / events : %d / %d\n" r.Runner.messages
        r.Runner.events;
      if r.Runner.jumps.Lc.count > 0 then
        Printf.bprintf b
          "clock jumps       : %d (max %.4f) — violates the bounded-rate model\n"
          r.Runner.jumps.Lc.count r.Runner.jumps.Lc.max_magnitude;
      Printf.bprintf b "gradient envelope : %.4f (analytic local bound)\n"
        (Bounds.gradient_local_upper spec ~diameter:d))

let run_cmd ~topo ~horizon ~seed ~out =
  let b = Buffer.create 1024 in
  span "cmd.run" (fun () ->
      let graph = build_graph topo seed in
      let cfg =
        Runner.config ~spec ~algo:Algorithm.Gradient_sync
          ~drift_of_node:(fun _ -> Drift.Random_constant)
          ~horizon ~seed ~loss:Runner.No_loss
          ~initial_value_of_node:(fun _ -> 0.) graph
      in
      let _, r = simulate cfg in
      Printf.bprintf b "algorithm: %s on %s\n"
        (Algorithm.kind_name Algorithm.Gradient_sync)
        (Topology.spec_name topo);
      print_summary b ~graph r;
      if r.Runner.dropped > 0 then
        Printf.bprintf b "messages dropped  : %d\n" r.Runner.dropped);
  write_file (Filename.concat out "stdout.txt") (Buffer.contents b)

(* ---------------------------------------------------------------- *)
(* sweep-store: gcs-cli sweep ... --store DIR, run twice (cold, warm)  *)

let sweep_pass ~name ~topologies ~seeds ~horizon ~seed ~store_dir ~csv =
  span name (fun () ->
      let seed_list = Replicate.seeds ~base:seed seeds in
      let cells =
        List.concat_map
          (fun topo ->
            List.concat_map
              (fun algo -> List.map (fun s -> (topo, algo, s)) seed_list)
              Algorithm.all_kinds)
          topologies
      in
      let keyed =
        Array.of_list
          (List.mapi
             (fun i (topo, algo, s) ->
               current_cell := i;
               let graph = build_graph topo s in
               ( Runner.store_key ~loss:0. ~spec ~topology:topo ~algo ~horizon
                   ~seed:s (),
                 Runner.config ~spec ~algo ~horizon ~loss:Runner.No_loss ~seed:s
                   graph ))
             cells)
      in
      let store =
        span "store.open" (fun () -> Store.open_ ~create:true store_dir)
      in
      (* Parallel_run.run_cached at jobs 1: every lookup first, then the
         misses in input order, each persisted as soon as it completes. *)
      let n = Array.length keyed in
      let outcomes = Array.make n None in
      Array.iteri
        (fun i (key, _) ->
          current_cell := i;
          outcomes.(i) <- span "store.find" (fun () -> Store.find store key))
        keyed;
      let hits = Array.fold_left (fun a o -> if o = None then a else a + 1) 0 outcomes in
      let dispatches = ref 0 in
      Array.iteri
        (fun i (key, cfg) ->
          if outcomes.(i) = None then begin
            current_cell := i;
            let _, r = simulate cfg in
            let o = span "core.outcome" (fun () -> Runner.outcome r) in
            span "store.put" (fun () -> Store.put store key o);
            dispatches := !dispatches + r.Runner.dispatches;
            outcomes.(i) <- Some o
          end)
        keyed;
      add "store.hits" (float hits);
      add "store.misses" (float (n - hits));
      set_max "store.log_bytes" (float (Store.log_bytes store));
      span "store.close" (fun () -> Store.close store);
      let rows =
        span "core.report" (fun () ->
            List.mapi
              (fun i (topo, algo, s) ->
                Report.outcome_row ~label:(Topology.spec_name topo)
                  ~algo:(Algorithm.kind_name algo) ~seed:s
                  (Option.get outcomes.(i)))
              cells)
      in
      span "core.report" (fun () ->
          let header = Report.result_header ~faults:false () in
          Gcs_util.Csv.write ~path:csv ~header ~rows);
      Printf.sprintf "store: %d hits, %d misses (%d fresh dispatches)\n" hits
        (n - hits) !dispatches)

let sweep_cmd ~topologies ~seeds ~horizon ~seed ~store_dir ~out =
  let passes =
    List.map
      (fun pass ->
        sweep_pass ~name:("cmd.sweep_" ^ pass) ~topologies ~seeds ~horizon ~seed
          ~store_dir
          ~csv:(Filename.concat out (pass ^ ".csv")))
      [ "cold"; "warm" ]
  in
  write_file (Filename.concat out "store.txt") (String.concat "" passes)

(* ---------------------------------------------------------------- *)
(* churn-observed: gcs-cli check run ... --skew, then gcs-cli trace    *)

let check_cmd ~algo ~topo ~horizon ~churn ~seed =
  span "cmd.check" (fun () ->
      current_cell := 0;
      let graph = build_graph topo seed in
      let plan = compile_churn churn ~graph ~seed ~horizon in
      let key =
        Runner.store_key ~loss:0. ?fault_plan:plan ~spec ~topology:topo ~algo
          ~horizon ~seed ()
      in
      let cfg =
        match span "core.config" (fun () -> Runner.config_of_key key) with
        | Ok cfg -> cfg
        | Error msg -> failwith msg
      in
      let skew_bound =
        span "check.bounds" (fun () ->
            Bounds.gradient_local_upper spec ~diameter:(diameter graph))
      in
      let edge_age =
        span "check.bounds" (fun () ->
            let base = Check_run.edge_age_bounds spec ~diameter:(diameter graph) in
            let windows =
              match plan with
              | None -> []
              | Some p -> Churn_plan.up_windows p ~graph ~horizon
            in
            { base with Monitor.windows })
      in
      let monitor =
        Check_run.default_spec ~mode:`Record ~skew_bound ~edge_age
          ~after:(horizon /. 4.) spec algo
      in
      (* Check_run.run with no adversary moves: prepare, attach, complete,
         finalize. *)
      let m = ref None in
      let live, _ =
        simulate
          ~attach:(fun live ->
            m := Some (span "check.attach" (fun () -> Monitor.attach monitor live)))
          cfg
      in
      let m = Option.get !m in
      let violation = span "check.finalize" (fun () -> Monitor.finalize m) in
      add "check.events_checked" (float (Monitor.events_checked m));
      let b = Buffer.create 256 in
      Printf.bprintf b "checked %s on %s: %d events monitored\n"
        (Algorithm.kind_name algo) (Topology.spec_name topo)
        (Monitor.events_checked m);
      (match violation with
      | None -> Printf.bprintf b "verdict: CONFORMS\n"
      | Some v ->
          Printf.bprintf b "verdict: VIOLATION\n  %s\n"
            (Monitor.violation_to_string v));
      (cfg, monitor, Engine.events_processed live.Runner.engine, Buffer.contents b))

let trace_cmd ~algo ~topo ~horizon ~churn ~seed ~events =
  span "cmd.trace" (fun () ->
      current_cell := 1;
      let obs =
        {
          Capture.none with
          Capture.events = true;
          events_format = Event_log.Jsonl;
          series_period = None;
          series_watch = [];
        }
      in
      let graph = build_graph topo seed in
      let fault_plan = compile_churn churn ~graph ~seed ~horizon in
      let cfg =
        Runner.config ~spec ~algo ~horizon ~seed ?fault_plan ~obs graph
      in
      let live, r = simulate cfg in
      let log =
        match r.Runner.obs.Capture.event_log with
        | Some log -> log
        | None -> failwith "no event log captured"
      in
      let lines =
        span "obs.encode" (fun () ->
            List.map (Event_log.encode_line Event_log.Jsonl) (Event_log.entries log))
      in
      span "obs.write" (fun () ->
          let oc = open_out events in
          List.iter
            (fun l ->
              output_string oc l;
              output_char oc '\n')
            lines;
          close_out oc);
      span "obs.validate" (fun () ->
          List.iteri
            (fun i line ->
              match Event_log.validate_line line with
              | Ok _ -> ()
              | Error msg ->
                  failwith (Printf.sprintf "schema violation on line %d: %s" (i + 1) msg))
            lines);
      add "obs.entries" (float (List.length lines));
      (cfg, Engine.events_processed live.Runner.engine))

(* obs.capture_s and check.monitor_s are each the Engine.run_until time of
   a command's config with its sink attached minus the same config run
   bare. After the commands, outside every cmd.* span, the two are timed
   [twin_reps] times each, in pairs whose order alternates, each run after
   a full major collection, so neither the order of the runs nor the heap
   the commands left behind tilts the difference; the harness keeps each
   one's fastest run. Observers never change a run, so every run must
   dispatch exactly the command's events. *)
let twin_reps = 5

let twin_runs name ~events ~attach (cfg : Runner.config) =
  let timed label cfg attach =
    Gc.compact ();
    let live = Runner.prepare cfg in
    attach live;
    span label (fun () -> Engine.run_until live.Runner.engine cfg.Runner.horizon);
    let n = Engine.events_processed live.Runner.engine in
    if n <> events then
      failwith
        (Printf.sprintf "%s dispatched %d events, the command %d" label n events)
  in
  let bare () = timed ("bare." ^ name) { cfg with Runner.obs = Capture.none } ignore
  and sink () = timed ("sink." ^ name) cfg attach in
  for i = 1 to twin_reps do
    if i mod 2 = 1 then (bare (); sink ()) else (sink (); bare ())
  done

let churn_cmd ~algo ~topo ~horizon ~churn ~seed ~out =
  let check_cfg, monitor, check_events, verdict =
    check_cmd ~algo ~topo ~horizon ~churn ~seed
  in
  write_file (Filename.concat out "check.txt") verdict;
  let trace_cfg, trace_events =
    trace_cmd ~algo ~topo ~horizon ~churn ~seed
      ~events:(Filename.concat out "events.jsonl")
  in
  add "cmd.trace.events" (float trace_events);
  twin_runs "check" ~events:check_events
    ~attach:(fun live -> ignore (Monitor.attach monitor live))
    check_cfg;
  twin_runs "trace" ~events:trace_events ~attach:ignore trace_cfg

(* ---------------------------------------------------------------- *)

let () =
  let usage = "mirror.exe (run|sweep|churn) [options]" in
  let workload = ref "" in
  let topology = ref "" and topologies = ref "" and algo = ref "" in
  let horizon = ref 0. and seed = ref 42 and seeds = ref 1 in
  let churn = ref "" and store = ref "" and out = ref "" in
  Arg.parse
    [
      ("--topology", Arg.Set_string topology, "T");
      ("--topologies", Arg.Set_string topologies, "T,...");
      ("--algo", Arg.Set_string algo, "A");
      ("--horizon", Arg.Set_float horizon, "H");
      ("--seed", Arg.Set_int seed, "S");
      ("--seeds", Arg.Set_int seeds, "K");
      ("--churn", Arg.Set_string churn, "PLAN");
      ("--store", Arg.Set_string store, "DIR");
      ("--out", Arg.Set_string out, "DIR");
    ]
    (fun a -> workload := a)
    usage;
  let ok = function Ok v -> v | Error msg -> failwith msg in
  let topo () = ok (Topology.spec_of_string !topology) in
  let horizon = !horizon and seed = !seed and out = !out in
  (match !workload with
  | "run" -> run_cmd ~topo:(topo ()) ~horizon ~seed ~out
  | "sweep" ->
      let topologies =
        List.map
          (fun s -> ok (Topology.spec_of_string s))
          (String.split_on_char ',' !topologies)
      in
      sweep_cmd ~topologies ~seeds:!seeds ~horizon ~seed ~store_dir:!store ~out
  | "churn" ->
      churn_cmd
        ~algo:(ok (Algorithm.kind_of_string !algo))
        ~topo:(topo ()) ~horizon
        ~churn:(ok (Churn_plan.of_string !churn))
        ~seed ~out
  | w ->
      prerr_endline ("mirror: unknown workload " ^ w ^ "\n" ^ usage);
      exit 2);
  write_trace out
