module Engine = Gcs_sim.Engine
module Delay_model = Gcs_sim.Delay_model
module Fault_plan = Gcs_sim.Fault_plan
module Graph = Gcs_graph.Graph
module Drift = Gcs_clock.Drift
module Hardware_clock = Gcs_clock.Hardware_clock
module Logical_clock = Gcs_clock.Logical_clock
module Prng = Gcs_util.Prng
module Capture = Gcs_obs.Capture
module Event_log = Gcs_obs.Event_log
module Series = Gcs_obs.Series
module Profiler = Gcs_obs.Profiler

type delay_kind =
  | Uniform_delays
  | Controlled_delays
  | Per_edge_delays of (int -> Delay_model.bounds)

type loss_law = No_loss | Uniform_loss of float

type config = {
  spec : Spec.t;
  graph : Graph.t;
  algo : Algorithm.kind;
  drift_of_node : int -> Drift.pattern;
  delay_kind : delay_kind;
  loss : loss_law;
  horizon : float;
  sample_period : float;
  warmup : float;
  seed : int;
  initial_value_of_node : int -> float;
  override : Algorithm.t option;
  fault_plan : Fault_plan.t option;
  obs : Capture.request;
  regions : int;
}

let config ?(spec = Spec.make ()) ?(algo = Algorithm.Gradient_sync)
    ?(drift_of_node = fun _ -> Drift.Random_constant)
    ?(delay_kind = Uniform_delays) ?(loss = No_loss) ?(horizon = 200.)
    ?(sample_period = 1.) ?warmup ?(seed = 42)
    ?(initial_value_of_node = fun _ -> 0.) ?override ?fault_plan
    ?(obs = Capture.none) ?(regions = 1) graph =
  let warmup = match warmup with Some w -> w | None -> horizon /. 4. in
  (* Every test is written so that NaN fails it: a NaN time breaks the
     event queue's total order, and an infinite horizon never ends. *)
  let finite name v =
    if not (Float.is_finite v) then
      invalid_arg (Printf.sprintf "Runner.config: %s must be finite" name)
  in
  finite "horizon" horizon;
  if horizon <= 0. then invalid_arg "Runner.config: horizon must be > 0";
  finite "sample_period" sample_period;
  if sample_period <= 0. then
    invalid_arg "Runner.config: sample_period must be > 0";
  finite "warmup" warmup;
  if regions < 1 then invalid_arg "Runner.config: regions must be >= 1";
  (match obs.Capture.series_period with
  | Some p ->
      finite "series period" p;
      if p <= 0. then invalid_arg "Runner.config: series period must be > 0"
  | None -> ());
  (match loss with
  | Uniform_loss p when not (p >= 0. && p <= 1.) ->
      invalid_arg "Runner.config: loss probability out of [0, 1]"
  | No_loss | Uniform_loss _ -> ());
  {
    spec;
    graph;
    algo;
    drift_of_node;
    delay_kind;
    loss;
    horizon;
    sample_period;
    warmup;
    seed;
    initial_value_of_node;
    override;
    fault_plan;
    obs;
    regions;
  }

type live = {
  cfg : config;
  engine : Message.t Engine.t;
  logical : Logical_clock.t array;
  chooser : Delay_model.chooser option ref;
  samples_rev : Metrics.sample list ref;
  event_log : Event_log.t option;
  series : Series.t option;
  profiler : Profiler.t option;
}

type result = {
  graph : Graph.t;
  spec : Spec.t;
  samples : Metrics.sample array;
  summary : Metrics.summary;
  events : int;
  messages : int;
  dropped : int;
  dropped_faults : int;
  dispatches : int;
  jumps : Logical_clock.jump_stats;
  fault_report : Fault_metrics.report option;
  obs : Capture.captured;
}

let snapshot_values live =
  Logical_clock.values live.logical ~now:(Engine.now live.engine)

let snapshot live =
  { Metrics.time = Engine.now live.engine; values = snapshot_values live }

(* The message-level windows of a fault plan, compiled to the engine's
   tamper and lie hooks. Pure construction — no engine required — so the
   hooks travel in the engine's declarative {!Engine.config} rather than
   being bolted on after creation. All tampering randomness comes from the
   engine's dedicated per-edge fault streams (the [rng] each hook
   receives), so the node and link streams — and with them any fault-free
   portion of the run — are untouched. *)
let fault_hooks (cfg : config) plan =
  (match Fault_plan.validate plan cfg.graph with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Runner: invalid fault plan: " ^ msg));
  let g = cfg.graph in
  let m = Graph.m g in
  let dup_w = Array.make m [] in
  let reorder_w = Array.make m [] in
  let corrupt_w = Array.make m [] in
  let byz_w = Array.make (Graph.n g) [] in
  let add_window arr edges w =
    List.iter (fun e -> arr.(e) <- arr.(e) @ [ w ]) (Fault_plan.resolve_edges g edges)
  in
  List.iter
    (fun ev ->
      match ev with
      | Fault_plan.Link_partition _ | Fault_plan.Link_heal _
      | Fault_plan.Node_crash _ | Fault_plan.Node_recover _
      | Fault_plan.Clock_jump _ | Fault_plan.Clock_rate_fault _ ->
          () (* timed actions; scheduled by [schedule_fault_controls] *)
      | Fault_plan.Msg_duplicate { from_; until; edges; prob } ->
          add_window dup_w edges (from_, until, prob)
      | Fault_plan.Msg_reorder { from_; until; edges; prob; extra } ->
          add_window reorder_w edges (from_, until, (prob, extra))
      | Fault_plan.Msg_corrupt { from_; until; edges; prob; magnitude } ->
          add_window corrupt_w edges (from_, until, (prob, magnitude))
      | Fault_plan.Byzantine { from_; until; node; strategy } ->
          byz_w.(node) <- byz_w.(node) @ [ (from_, until, strategy) ])
    (Fault_plan.events plan);
  let has_windows a = Array.exists (fun l -> l <> []) a in
  let active windows now =
    List.find_map
      (fun (from_, until, x) ->
        if from_ <= now && now < until then Some x else None)
      windows
  in
  let tamper =
    if not (has_windows dup_w || has_windows reorder_w || has_windows corrupt_w)
    then None
    else
      Some
        {
        Engine.extra_delay =
          (fun ~edge ~now ~rng ->
            match active reorder_w.(edge) now with
            | None -> 0.
            | Some (prob, extra) ->
                if Prng.float rng 1.0 < prob then
                  Prng.uniform rng ~lo:0. ~hi:extra
                else 0.);
        corrupt =
          (fun ~edge ~now ~rng msg ->
            match active corrupt_w.(edge) now with
            | None -> None
            | Some (prob, magnitude) ->
                if Prng.float rng 1.0 >= prob then None
                else
                  (* Draw unconditionally so the stream advances the same
                     way whatever the message variant. *)
                  let delta =
                    Prng.uniform rng ~lo:(-.magnitude) ~hi:magnitude
                  in
                  Message.perturb delta msg);
          duplicate =
            (fun ~edge ~now ~rng ->
              match active dup_w.(edge) now with
              | None -> false
              | Some prob -> Prng.float rng 1.0 < prob);
        }
  in
  (* Byzantine rewrite, keyed by the sending node. Randomness (Lie_random
     only) comes from the sender's dedicated Byzantine stream, split after
     every other stream, so plans without Byzantine events never perturb a
     draw — the whole run stays bit-identical to a pre-Byzantine engine. *)
  let lie =
    if not (has_windows byz_w) then None
    else
      Some
        (fun ~src ~dst ~now ~rng msg ->
        match
          List.find_map
            (fun (from_, until, s) ->
              if from_ <= now && now < until then Some (from_, s) else None)
            byz_w.(src)
        with
        | None -> None
        | Some (from_, strategy) ->
            Message.perturb
              (Fault_plan.lie_delta strategy ~from_ ~now ~src ~dst ~rng)
              msg)
  in
  (tamper, lie)

(* The timed actions of a fault plan, scheduled as engine controls. Runs
   after the metric probes are armed so control sequence numbers are
   assigned in the same order they always were (run byte-identity depends
   on it). The plan was validated by [fault_hooks]. *)
let schedule_fault_controls engine logical plan =
  let g = Engine.graph engine in
  let sched at f = Engine.schedule_control engine ~at f in
  List.iter
    (fun ev ->
      match ev with
      | Fault_plan.Link_partition { at; edges } ->
          let ids = Fault_plan.resolve_edges g edges in
          sched at (fun () ->
              List.iter (fun e -> Engine.set_edge_up engine ~edge:e ~up:false) ids)
      | Fault_plan.Link_heal { at; edges } ->
          let ids = Fault_plan.resolve_edges g edges in
          sched at (fun () ->
              List.iter (fun e -> Engine.set_edge_up engine ~edge:e ~up:true) ids)
      | Fault_plan.Node_crash { at; node } ->
          sched at (fun () -> Engine.crash_node engine ~node)
      | Fault_plan.Node_recover { at; node; wipe } ->
          sched at (fun () -> Engine.recover_node engine ~node ~wipe)
      | Fault_plan.Clock_jump { at; node; delta } ->
          sched at (fun () ->
              Logical_clock.advance logical.(node) ~now:(Engine.now engine)
                delta)
      | Fault_plan.Clock_rate_fault { at; node; rate } ->
          sched at (fun () -> Engine.set_node_rate engine ~node ~rate)
      | Fault_plan.Msg_duplicate _ | Fault_plan.Msg_reorder _
      | Fault_plan.Msg_corrupt _ | Fault_plan.Byzantine _ ->
          () (* window faults; compiled into hooks by [fault_hooks] *))
    (Fault_plan.events plan)

(* Resolve the region count to request for one run. An adversarial delay
   chooser is installed mid-run, after [Engine.of_config] has chosen the
   execution strategy, and a window's barrier replay would consult it in a
   different order than the serial engine, so such a run asks for one
   region. [Engine.of_config] makes every other fallback itself (a
   profiled run installs the dispatch hook; a Byzantine plan under loss
   installs a lie on a lossy delay model). *)
let effective_regions (cfg : config) =
  match cfg.delay_kind with
  | Controlled_delays -> 1
  | Uniform_delays | Per_edge_delays _ -> cfg.regions

let prepare (cfg : config) =
  (match Spec.validate cfg.spec with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Runner.prepare: " ^ msg));
  let n = Graph.n cfg.graph in
  let t0 = 0. in
  let rng = Prng.create ~seed:cfg.seed in
  let drift_rng = Prng.split rng in
  let engine_rng = Prng.split rng in
  let band = Drift.band ~rho:cfg.spec.rho in
  let clocks =
    Array.init n (fun v ->
        Drift.make_clock (cfg.drift_of_node v) ~band ~t0 ~horizon:cfg.horizon
          ~rng:drift_rng)
  in
  let logical =
    Array.init n (fun v ->
        Logical_clock.create ~hardware:clocks.(v) ~now:t0
          ~value:(cfg.initial_value_of_node v) ~mult:1.)
  in
  let chooser = ref None in
  let delays =
    let b = cfg.spec.delay in
    let base =
      match cfg.delay_kind with
      | Uniform_delays -> Delay_model.uniform b
      | Controlled_delays ->
          Delay_model.controlled b ~default:(Delay_model.uniform b) chooser
      | Per_edge_delays edge_bounds -> Delay_model.per_edge edge_bounds
    in
    match cfg.loss with
    | No_loss -> base
    | Uniform_loss p -> Delay_model.with_loss p base
  in
  let ctx = { Algorithm.spec = cfg.spec; graph = cfg.graph; logical } in
  let implementation =
    match cfg.override with Some a -> a | None -> Registry.get cfg.algo
  in
  let make_node = implementation.Algorithm.prepare ctx in
  (* Everything the engine needs is described up front — observers,
     instrumentation, fault hooks, parallelism — and handed to
     [Engine.of_config] in one declarative value. Sinks are materialised
     fresh for every run from the pure [obs] request, so captures never
     leak across the runs of a sweep. *)
  let tamper, lie =
    match cfg.fault_plan with
    | None -> (None, None)
    | Some plan -> fault_hooks cfg plan
  in
  let event_log =
    if not cfg.obs.Capture.events then None
    else
      Some
        (Event_log.create ?capacity:cfg.obs.Capture.events_capacity
           ~format_:cfg.obs.Capture.events_format ())
  in
  let series =
    match cfg.obs.Capture.series_period with
    | None -> None
    | Some _ -> Some (Series.create ())
  in
  let profiler =
    if not cfg.obs.Capture.profile then None else Some (Profiler.create ())
  in
  let engine =
    Engine.of_config
      (Engine.config ~regions:(effective_regions cfg)
         ~observers:
           (match event_log with
           | None -> []
           | Some log -> [ Event_log.record log ])
         ?hook:(Option.map Profiler.hooks profiler)
         ~hook_every:
           (match profiler with
           | None -> 1
           | Some p -> Profiler.sample_every p)
         ?tamper ?lie ~graph:cfg.graph ~clocks ~delays ~rng:engine_rng
         ~make_node ~t0 ())
  in
  let live =
    { cfg; engine; logical; chooser; samples_rev = ref []; event_log; series;
      profiler }
  in
  let rec probe at =
    Engine.schedule_control engine ~at (fun () ->
        live.samples_rev := snapshot live :: !(live.samples_rev);
        let next = at +. cfg.sample_period in
        if next <= cfg.horizon +. 1e-9 then probe next)
  in
  probe t0;
  (match (series, cfg.obs.Capture.series_period) with
  | Some series, Some period ->
      (* A point keeps every node's value and no profile: [complete]
         profiles all the points in one BFS pass, where a pass per point
         would cost O(n (n + m)) each. *)
      let point () =
        let now = Engine.now engine in
        let values = snapshot_values live in
        {
          Series.time = now;
          global_skew = Metrics.global_skew values;
          local_skew = Metrics.local_skew cfg.graph values;
          profile = [||];
          values;
          rates =
            (if cfg.obs.Capture.series_values then
               Array.map (fun c -> Hardware_clock.rate_at c ~now) clocks
             else [||]);
          watched =
            (match cfg.obs.Capture.series_watch with
            | [] -> [||]
            | pairs ->
                Array.of_list
                  (List.map
                     (fun (u, v) ->
                       Float.abs (values.(u) -. values.(v)))
                     pairs));
        }
      in
      let rec sprobe at =
        Engine.schedule_control engine ~at (fun () ->
            Series.record series (point ());
            let next = at +. period in
            if next <= cfg.horizon +. 1e-9 then sprobe next)
      in
      sprobe t0
  | _ -> ());
  (match cfg.fault_plan with
  | None -> ()
  | Some plan -> schedule_fault_controls engine logical plan);
  live

let aggregate_jumps logical =
  Array.fold_left
    (fun acc lc ->
      let s = Logical_clock.jump_stats lc in
      {
        Logical_clock.count = acc.Logical_clock.count + s.Logical_clock.count;
        total_magnitude =
          acc.Logical_clock.total_magnitude +. s.Logical_clock.total_magnitude;
        max_magnitude =
          Float.max acc.Logical_clock.max_magnitude
            s.Logical_clock.max_magnitude;
      })
    { Logical_clock.count = 0; total_magnitude = 0.; max_magnitude = 0. }
    logical

let complete live =
  let cfg = live.cfg in
  (match live.profiler with
  | None -> Engine.run_until live.engine cfg.horizon
  | Some prof ->
      (* Same event sequence as a single run_until — the engine only ever
         advances monotonically — but each window gets its own phase. *)
      let split = Float.min (Float.max cfg.warmup 0.) cfg.horizon in
      Profiler.phase prof "warmup" (fun () ->
          Engine.run_until live.engine split);
      Profiler.phase prof "measure" (fun () ->
          Engine.run_until live.engine cfg.horizon));
  (* The delay model's closure captured [live.chooser] at [prepare] time;
     clearing the cell here ends the chooser's lifetime with the run, so an
     adversary installed for this run can never leak into later draws on a
     retained engine (or into an unrelated run sharing the installer). *)
  live.chooser := None;
  let samples = Array.of_list (List.rev !(live.samples_rev)) in
  let summary =
    (* A horizon shorter than the warm-up leaves no qualifying samples;
       fall back to summarizing everything instead of trapping. *)
    match Metrics.summarize_opt cfg.graph samples ~after:cfg.warmup with
    | Some s -> s
    | None -> Metrics.summarize cfg.graph samples ~after:neg_infinity
  in
  let fault_report =
    match cfg.fault_plan with
    | None -> None
    | Some plan ->
        Some
          (Fault_metrics.evaluate
             ~byzantine:(Fault_plan.byzantine_nodes plan)
             ~lied:(Engine.messages_lied live.engine)
             ~after:cfg.warmup ~spec:cfg.spec ~graph:cfg.graph ~samples
             ~episodes:(Fault_plan.episodes plan cfg.graph)
             ~dropped_faults:(Engine.messages_dropped_faults live.engine)
             ~duplicated:(Engine.messages_duplicated live.engine)
             ~corrupted:(Engine.messages_corrupted live.engine) ())
  in
  (* Every series point's profile from one BFS pass over all of them; a
     point keeps its values only if the capture asked for them. *)
  let series =
    Option.map
      (fun probed ->
        let points = Series.points probed in
        let profiles =
          Metrics.gradient_profiles cfg.graph
            (Array.map (fun p -> p.Series.values) points)
        in
        let series = Series.create () in
        Array.iteri
          (fun i p ->
            Series.record series
              {
                p with
                Series.profile = profiles.(i);
                values =
                  (if cfg.obs.Capture.series_values then p.Series.values
                   else [||]);
              })
          points;
        series)
      live.series
  in
  {
    graph = cfg.graph;
    spec = cfg.spec;
    samples;
    summary;
    events = Engine.events_processed live.engine;
    messages = Engine.messages_sent live.engine;
    dropped = Engine.messages_dropped live.engine;
    dropped_faults = Engine.messages_dropped_faults live.engine;
    dispatches =
      Engine.dispatch_count live.engine Engine.Dispatch_deliver
      + Engine.dispatch_count live.engine Engine.Dispatch_timer
      + Engine.dispatch_count live.engine Engine.Dispatch_control;
    jumps = aggregate_jumps live.logical;
    fault_report;
    obs =
      {
        Capture.event_log = live.event_log;
        series;
        profile =
          Option.map
            (fun p ->
              Profiler.finish p
                ~events:(Engine.events_processed live.engine)
                ~messages:(Engine.messages_sent live.engine)
                ~deliver_count:
                  (Engine.dispatch_count live.engine Engine.Dispatch_deliver)
                ~timer_count:
                  (Engine.dispatch_count live.engine Engine.Dispatch_timer)
                ~control_count:
                  (Engine.dispatch_count live.engine Engine.Dispatch_control)
                ~heap_high_water:(Engine.heap_high_water live.engine))
            live.profiler;
      };
  }

let run cfg = complete (prepare cfg)

let store_key ?(drift = "random") ?(loss = 0.) ?(sample_period = 1.) ?warmup
    ?fault_plan ~spec ~topology ~algo ~horizon ~seed () =
  let warmup = match warmup with Some w -> w | None -> horizon /. 4. in
  Gcs_store.Key.make ~drift ~loss ?fault_plan ~rho:spec.Spec.rho
    ~mu:spec.Spec.mu ~d_min:(Spec.d_min spec) ~d_max:(Spec.d_max spec)
    ~beacon_period:spec.Spec.beacon_period ~kappa:spec.Spec.kappa
    ~staleness_limit:spec.Spec.staleness_limit ~topology
    ~algo:(Algorithm.kind_name algo) ~horizon ~sample_period ~warmup ~seed ()

(* The inverse of [store_key] over the describable subset: rebuild the
   runnable config a canonical key denotes, on the graph of the key's seed,
   so re-simulating the config reproduces the run the key addresses bit
   for bit. *)
let config_of_key ?obs ?regions (key : Gcs_store.Key.t) =
  let module K = Gcs_store.Key in
  match
    ( Algorithm.kind_of_string key.K.algo,
      Drift.pattern_of_string key.K.drift )
  with
  | Error msg, _ | _, Error msg -> Error msg
  | Ok algo, Ok pattern -> (
      try
        let spec =
          Spec.make ~rho:key.K.rho ~mu:key.K.mu ~d_min:key.K.d_min
            ~d_max:key.K.d_max ~beacon_period:key.K.beacon_period
            ~kappa:key.K.kappa ~staleness_limit:key.K.staleness_limit ()
        in
        let graph =
          Gcs_graph.Topology.build_for_seed key.K.topology ~seed:key.K.seed
        in
        match
          Option.map (fun p -> Fault_plan.validate p graph) key.K.fault_plan
        with
        | Some (Error msg) ->
            Error
              (Printf.sprintf "fault plan on %s: %s"
                 (Gcs_graph.Topology.spec_name key.K.topology)
                 msg)
        | None | Some (Ok ()) ->
            (* Anything but an exact zero, NaN included, reaches [config]'s
               range check. *)
            let loss =
              if key.K.loss = 0. then No_loss else Uniform_loss key.K.loss
            in
            Ok
              (config ~spec ~algo
                 ~drift_of_node:(fun _ -> pattern)
                 ~loss ~horizon:key.K.horizon
                 ~sample_period:key.K.sample_period ~warmup:key.K.warmup
                 ~seed:key.K.seed ?fault_plan:key.K.fault_plan ?obs ?regions
                 graph)
      with Invalid_argument msg -> Error msg)

let outcome (r : result) =
  let fault =
    Option.map
      (fun rep ->
        {
          Gcs_store.Outcome.transient = Fault_metrics.worst_transient rep;
          fault_drops = rep.Fault_metrics.dropped_faults;
          resync = Fault_metrics.max_time_to_resync rep;
        })
      r.fault_report
  in
  {
    Gcs_store.Outcome.nodes = Graph.n r.graph;
    edges = Graph.m r.graph;
    diameter = Gcs_graph.Shortest_path.diameter r.graph;
    max_global = r.summary.Metrics.max_global;
    max_local = r.summary.Metrics.max_local;
    mean_local = r.summary.Metrics.mean_local;
    p99_local = r.summary.Metrics.p99_local;
    final_global = r.summary.Metrics.final_global;
    final_local = r.summary.Metrics.final_local;
    samples_used = r.summary.Metrics.samples_used;
    messages = r.messages;
    dropped = r.dropped;
    dropped_faults = r.dropped_faults;
    events = r.events;
    jump_count = r.jumps.Logical_clock.count;
    jump_total = r.jumps.Logical_clock.total_magnitude;
    jump_max = r.jumps.Logical_clock.max_magnitude;
    fault;
  }
