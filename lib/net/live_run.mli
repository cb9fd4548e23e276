(** Spawn, barrier, collect: a whole live execution as one value.

    [run] forks one {!Live_node} process per node of the topology, lines
    them all up on a wall-clock barrier, and collects their recorded
    executions into a standard {!Gcs_core.Runner.result} — the same type
    a simulated run produces — so reporting, tracing and monitor
    checking apply to live executions verbatim.

    Two mismatches between wall-clock execution and the simulator's
    sampling discipline are reconciled here rather than hidden:

    - {b Sampling jitter.} A process wakes {e near} its sample instant,
      never exactly on it; pinning the wake-up value to the grid time
      would manufacture phantom clock-rate violations of order
      jitter / period. Children therefore record (actual time, value)
      pairs and the coordinator linearly interpolates each node's
      polyline onto the common grid — interpolated rates are convex
      combinations of real segment rates, so a clean execution stays
      clean under every {!Gcs_check.Monitor} check.
    - {b Event-log merging.} Per-process logs are merged by recorded
      time (ties broken by node, then per-process order) and
      re-sequenced, yielding one canonical log that round-trips through
      {!Gcs_obs.Event_log.validate_line}.

    A recorded run [save]d to a directory ([events.jsonl], [samples.csv],
    [meta]) can be [load]ed back into a result by a later process —
    that is what [gcs-cli report --recorded], [trace --input] and
    [check run --recorded] consume. *)

type config = {
  topology : Gcs_graph.Topology.spec;
  algo : Gcs_core.Algorithm.kind;
  spec : Gcs_core.Spec.t;
  drift : string;  (** CLI drift spelling, e.g. ["random"], ["perfect"] *)
  horizon : float;  (** wall seconds after the barrier *)
  sample_period : float;
  warmup : float;
  seed : int;
  base_port : int;
  host : string;
  fault_plan : Gcs_sim.Fault_plan.t option;
  startup : float;  (** barrier lead time for spawning, in seconds *)
}

val config :
  ?topology:Gcs_graph.Topology.spec ->
  ?algo:Gcs_core.Algorithm.kind ->
  ?spec:Gcs_core.Spec.t ->
  ?drift:string ->
  ?horizon:float ->
  ?sample_period:float ->
  ?warmup:float ->
  ?seed:int ->
  ?base_port:int ->
  ?host:string ->
  ?fault_plan:Gcs_sim.Fault_plan.t ->
  ?startup:float ->
  unit ->
  config
(** Defaults: 4-node ring, gradient, [Spec.make ()] scaled for wall time
    (beacon period 0.25, delays ignored live), drift ["random"],
    horizon 6, sample period 0.5, warmup [horizon / 4], seed 42, base
    port 9200, loopback host, no faults, startup 0.5. Raises
    [Invalid_argument] on a non-positive horizon/period or an unknown
    drift spelling. *)

val build_graph : config -> Gcs_graph.Graph.t
(** The run's graph: {!Gcs_graph.Topology.build_for_seed} of its topology
    and seed, the graph a simulated run with the same key runs on. *)

val run : config -> Gcs_core.Runner.result
(** Fork the fleet, wait for every child, merge. Raises [Failure] if a
    child exits abnormally. *)

type info = {
  topology : Gcs_graph.Topology.spec;
  algo : Gcs_core.Algorithm.kind;
  horizon : float;
  sample_period : float;
  warmup : float;
  seed : int;
  fault_plan : Gcs_sim.Fault_plan.t option;
}
(** Run parameters a recorded directory preserves alongside the result —
    what [check run --recorded] needs to rebuild the monitor spec. *)

val save : config -> Gcs_core.Runner.result -> dir:string -> unit
(** Write [events.jsonl], [samples.csv] and [meta] under [dir], creating
    it if needed. *)

val load : string -> (info * Gcs_core.Runner.result, string) result
(** Re-hydrate a recorded run from a directory written by [save]. The
    summary, series and fault report are recomputed from the recorded
    samples; counters come from [meta]. *)
