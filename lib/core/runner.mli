(** Assemble a full simulation: topology + clocks + delays + algorithm.

    [run] is the one-call entry point used by examples and benchmarks.
    [prepare] / [complete] split the same pipeline so that a controller
    (the lower-bound adversary, a failure injector, a custom probe) can
    attach to the live engine between construction and execution. *)

type delay_kind =
  | Uniform_delays  (** i.i.d. uniform in the delay band (benign default) *)
  | Controlled_delays
      (** uniform until a chooser is installed in [live.chooser] *)
  | Per_edge_delays of (int -> Gcs_sim.Delay_model.bounds)
      (** heterogeneous networks: uniform draw within each edge's own
          bounds (pair with [Gradient_hetero]) *)

(** Message-loss law applied on top of the delay model. Beacon-based
    synchronization is soft state, so algorithms degrade gracefully rather
    than wedging when messages vanish. *)
type loss_law =
  | No_loss
  | Uniform_loss of float  (** i.i.d. drop probability per message *)

type config = {
  spec : Spec.t;
  graph : Gcs_graph.Graph.t;
  algo : Algorithm.kind;
  drift_of_node : int -> Gcs_clock.Drift.pattern;
  delay_kind : delay_kind;
  loss : loss_law;
  horizon : float;  (** real-time length of the run *)
  sample_period : float;  (** metric sampling interval *)
  warmup : float;  (** samples before this time are excluded from summaries *)
  seed : int;
  initial_value_of_node : int -> float;
      (** initial logical clock values (the model allows adversarial
          initialization; default 0 everywhere) *)
  override : Algorithm.t option;
      (** when set, run this implementation instead of the one [algo] names
          (used for wrapped algorithms, e.g. {!Stabilize.wrap}) *)
  fault_plan : Gcs_sim.Fault_plan.t option;
      (** scheduled fault injection (partitions, crash-recover, message
          tampering, clock faults); installed on the engine by [prepare]
          and evaluated into [result.fault_report] by [complete] *)
  obs : Gcs_obs.Capture.request;
      (** which observability sinks to install. [prepare] materialises
          fresh sinks from this pure description for every run, so the
          same request is safe to share across a sweep; the finished sinks
          come back in [result.obs]. Sinks are engine observers: they
          never touch algorithm state or randomness, so enabling them
          changes no summary (only [result.events], since the series
          probe schedules control events). *)
  scheduler : Gcs_util.Scheduler.kind;
      (** event-queue implementation the engine runs on; pure execution
          strategy, so results are byte-identical for every kind (which is
          why it is absent from [store_key]) *)
  regions : int;
      (** requested region-parallel domains (default 1 = serial). Also a
          pure execution strategy: any configuration the parallel engine
          could not reproduce bit-for-bit (adversarial delay choosers,
          Byzantine plans under message loss, profiled runs) silently
          falls back to serial, so results are byte-identical for every
          value — and, like [scheduler], it is excluded from
          [store_key]. *)
}

val config :
  ?spec:Spec.t ->
  ?algo:Algorithm.kind ->
  ?drift_of_node:(int -> Gcs_clock.Drift.pattern) ->
  ?delay_kind:delay_kind ->
  ?loss:loss_law ->
  ?horizon:float ->
  ?sample_period:float ->
  ?warmup:float ->
  ?seed:int ->
  ?initial_value_of_node:(int -> float) ->
  ?override:Algorithm.t ->
  ?fault_plan:Gcs_sim.Fault_plan.t ->
  ?obs:Gcs_obs.Capture.request ->
  ?scheduler:Gcs_util.Scheduler.kind ->
  ?regions:int ->
  Gcs_graph.Graph.t ->
  config
(** Defaults: default spec, [Gradient_sync], random-constant drift per node,
    uniform delays, horizon 200, sampling every 1, warm-up 1/4 of the
    horizon, seed 42, all clocks starting at 0, no faults, no capture
    ([Gcs_obs.Capture.none]), binary-heap scheduler, serial execution
    ([regions = 1]). *)

type live = {
  cfg : config;
  engine : Message.t Gcs_sim.Engine.t;
  logical : Gcs_clock.Logical_clock.t array;
  chooser : Gcs_sim.Delay_model.chooser option ref;
      (** Adversarial delay hook; only honoured under [Controlled_delays]. *)
  samples_rev : Metrics.sample list ref;
      (** Collected samples, newest first; consumed by [complete]. *)
  event_log : Gcs_obs.Event_log.t option;
      (** Installed when [cfg.obs.events]; already attached. *)
  series : Gcs_obs.Series.t option;
      (** Installed when [cfg.obs.series_period] is set; fed by its own
          control-event probe at that cadence. *)
  profiler : Gcs_obs.Profiler.t option;
      (** Installed when [cfg.obs.profile]; wired to the engine's dispatch
          hooks. [complete] finishes it into [result.obs.profile]. *)
}

type result = {
  graph : Gcs_graph.Graph.t;
  spec : Spec.t;
  samples : Metrics.sample array;
  summary : Metrics.summary;
  events : int;
  messages : int;
  dropped : int;  (** messages lost to the loss law *)
  dropped_faults : int;
      (** messages lost to partitions or crashed receivers (zero without a
          fault plan) *)
  dispatches : int;
      (** total engine dispatches (deliveries + timers + control events)
          this run performed — exactly zero for a result served from the
          experiment store, which is how cache-correctness assertions
          distinguish "simulated" from "recalled" *)
  jumps : Gcs_clock.Logical_clock.jump_stats;
      (** aggregate clock discontinuities across all nodes; non-zero only
          for jump-based algorithms, which thereby step outside the
          model's bounded-rate output requirement *)
  fault_report : Fault_metrics.report option;
      (** recovery metrics per fault episode; [Some] iff a fault plan was
          configured *)
  obs : Gcs_obs.Capture.captured;
      (** the sinks requested by [config.obs], now holding this run's
          capture; [Gcs_obs.Capture.empty] when nothing was requested, so
          results without capture still compare structurally equal (the
          determinism checks rely on this) *)
}

val prepare : config -> live
(** Build the engine with the algorithm installed and the metric probe
    armed, without running anything. *)

val complete : live -> result
(** Run to the horizon and package metrics. Also resets [live.chooser] to
    [None]: a chooser's lifetime ends with the run it was installed for,
    so an adversary hook can never leak into later draws on a retained
    engine or into an unrelated run. *)

val run : config -> result
(** [complete (prepare cfg)]. *)

val snapshot : live -> Metrics.sample
(** Current true logical clock values (observer access; usable from control
    closures while the run is live). *)

val store_key :
  ?drift:string ->
  ?loss:float ->
  ?sample_period:float ->
  ?warmup:float ->
  ?fault_plan:Gcs_sim.Fault_plan.t ->
  spec:Spec.t ->
  topology:Gcs_graph.Topology.spec ->
  algo:Algorithm.kind ->
  horizon:float ->
  seed:int ->
  unit ->
  Gcs_store.Key.t
(** The canonical store key of the run a [config] built from these inputs
    would perform. Defaults mirror {!config}: [drift] ["random"]
    (per-node random-constant), [loss] [0.], [sample_period] [1.],
    [warmup] [horizon /. 4.]. A key exists only for describable runs —
    topology by spec (the graph must be
    {!Gcs_graph.Topology.build_for_seed} of the spec and seed), drift by
    pattern string, loss by uniform probability — so custom delay
    choosers, overrides, or bespoke graphs are simply uncacheable, not
    mis-cached. *)

val config_of_key :
  ?obs:Gcs_obs.Capture.request ->
  ?scheduler:Gcs_util.Scheduler.kind ->
  ?regions:int ->
  Gcs_store.Key.t ->
  (config, string) Stdlib.result
(** The inverse of {!store_key} over the describable subset: rebuild the
    runnable config a canonical key denotes, on
    {!Gcs_graph.Topology.build_for_seed} of its topology and seed, with
    the drift law from its pattern string and the loss law from its
    probability. Re-running the config reproduces the addressed run bit
    for bit — this is how the CLI builds every describable run, and how
    the conformance harness replays and shrinks counterexamples from a
    [.repro] artifact alone. [obs], [scheduler] and [regions] are passed
    to {!config} unchanged: they choose how the run executes and what it
    captures, never its results, which is why the key leaves them out.
    [Error] on unparseable algorithm or drift names, on a fault plan the
    graph cannot carry ({!Gcs_sim.Fault_plan.validate}), and on
    spec/config values {!config} would reject. *)

val outcome : result -> Gcs_store.Outcome.t
(** Flatten a result to the primitive record the store persists (summary,
    counters, jump stats, fault report; the graph reduced to
    nodes/edges/diameter). Lossless for everything a sweep row needs:
    [Report.outcome_row] renders identical bytes from a fresh result and
    its stored outcome. *)
