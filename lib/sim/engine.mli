(** Discrete-event engine for message-passing distributed algorithms.

    Nodes are event-driven state machines. A node's handlers run when a
    message arrives, when a timer it armed (in its own *hardware* time)
    fires, or once at startup. Handlers interact with the world only through
    the {!api} record: they can read their hardware clock, send on local
    ports, arm timers, and draw from a private RNG — they can never read
    real time, other nodes' clocks, or the topology, which enforces the
    knowledge restrictions of the model.

    The engine itself is deterministic: ties in event time are broken by
    insertion order, and all randomness flows from per-component PRNGs
    derived from the run seed.

    Adversary/observer hooks ([schedule_control], [set_node_rate],
    [hardware_clock]) operate *outside* the node API: they model the
    omniscient adversary and the metrics observer of the paper, both of
    which see true clock values and control drift and delays but cannot
    alter algorithm state. [set_node_rate] transparently reschedules the
    node's pending hardware timers so timer semantics stay exact across rate
    changes. *)

type 'msg t

type 'msg api = {
  node : int;  (** this node's id (usable as a name in messages) *)
  ports : int;  (** number of incident links *)
  hardware : unit -> float;  (** read the local hardware clock *)
  send : port:int -> 'msg -> unit;
  set_timer : h:float -> tag:int -> unit;
      (** Arm a one-shot timer that fires when the local hardware clock
          reaches [h]; a value already in the past fires immediately. Any
          number of timers may be pending; they are distinguished by [tag]
          (tags need not be unique). *)
  rng : Gcs_util.Prng.t;  (** node-private deterministic randomness *)
}

type 'msg handlers = {
  on_init : 'msg api -> unit;
  on_message : 'msg api -> port:int -> 'msg -> unit;
  on_timer : 'msg api -> tag:int -> unit;
}

(** Engine-level happenings an observer (tracer, debugger, metrics
    collector) can subscribe to. Observation is invisible to algorithms. *)
type observation =
  | Obs_send of { src : int; dst : int; edge : int; delay : float }
  | Obs_drop of { src : int; dst : int; edge : int }
  | Obs_deliver of { dst : int; port : int }
  | Obs_timer of { node : int; tag : int }
  | Obs_rate_change of { node : int; rate : float }
  | Obs_node_down of { node : int }
  | Obs_node_up of { node : int; wipe : bool }
  | Obs_edge_down of { edge : int }
  | Obs_edge_up of { edge : int }
  | Obs_fault_drop of { src : int; dst : int; edge : int }
      (** lost to a partition or a crashed endpoint, not to the loss law *)
  | Obs_duplicate of { src : int; dst : int; edge : int }
  | Obs_corrupt of { src : int; dst : int; edge : int }
  | Obs_lie of { src : int; dst : int; edge : int }
      (** the sender rewrote this message under a Byzantine strategy *)

(** Which kind of callback a dispatch is about to run; profiling hooks
    bracket algorithm handlers ([Dispatch_deliver], [Dispatch_timer]) and
    control closures ([Dispatch_control], the observer/adversary side). *)
type dispatch_kind = Dispatch_deliver | Dispatch_timer | Dispatch_control

type dispatch_hook = {
  before : dispatch_kind -> unit;
  after : dispatch_kind -> unit;
}
(** [before]/[after] run around the handler or closure of each dispatched
    event (not around re-aimed timers or fault drops, which run no user
    code). The split shape keeps the hot path allocation-free; a hook must
    not raise. *)

(** Delivery-side mutation hooks, consulted on every non-dropped send. All
    randomness must come from the [rng] handed in — it is the edge's
    dedicated fault stream, so tampering never perturbs delay or node
    streams and runs stay bit-identical under sharding. *)
type 'msg tamper = {
  extra_delay : edge:int -> now:float -> rng:Gcs_util.Prng.t -> float;
      (** added to the drawn delay, after the bounds check (a reorder fault
          deliberately exceeds the model's delay bounds) *)
  corrupt :
    edge:int -> now:float -> rng:Gcs_util.Prng.t -> 'msg -> 'msg option;
      (** [Some msg'] replaces the payload and counts as a corruption *)
  duplicate : edge:int -> now:float -> rng:Gcs_util.Prng.t -> bool;
      (** [true] enqueues a second copy with an independent delay drawn
          from the fault stream *)
}

type 'msg lie =
  src:int -> dst:int -> now:float -> rng:Gcs_util.Prng.t -> 'msg -> 'msg option
(** Source-side Byzantine rewrite, consulted on every non-dropped send
    *before* tampering: the sender hands the network an already-false value,
    and the value may differ per receiver (equivocation). The [rng] is the
    sender's dedicated Byzantine stream, split after node, link, and fault
    streams, so installing a lie that never fires — or no lie at all —
    leaves every other stream, and therefore the whole run, bit-identical. *)

(** {1 Construction}

    An engine is described declaratively by a {!config} — everything a run
    needs (topology, clocks, delays, observers, instrumentation, fault
    hooks, scheduler, parallelism) in one value, built once and handed to
    {!of_config}. The historical mutate-after-create entry points
    ([set_observer], [set_dispatch_hook], [set_tamper], [set_lie]) are gone:
    pass the corresponding config fields instead — a fully-described
    construction is what lets [of_config] choose the parallel execution
    strategy safely. Observer sinks may still be appended to a built engine
    with {!add_observer} (observation is invisible to the run, so late
    attachment is safe); everything that can perturb execution is
    config-only. *)

type 'msg config

val config :
  ?scheduler:Gcs_util.Scheduler.kind ->
  ?regions:int ->
  ?observers:(float -> observation -> unit) list ->
  ?hook:dispatch_hook ->
  ?hook_every:int ->
  ?tamper:'msg tamper ->
  ?lie:'msg lie ->
  graph:Gcs_graph.Graph.t ->
  clocks:Gcs_clock.Hardware_clock.t array ->
  delays:Delay_model.t ->
  rng:Gcs_util.Prng.t ->
  make_node:(int -> 'msg handlers) ->
  t0:float ->
  unit ->
  'msg config
(** Describe an engine. [clocks.(v)] is node [v]'s hardware clock (one per
    node, all started at or before [t0]). [make_node v] is called once per
    node, in id order, to produce its handlers; [on_init] runs for every
    node at time [t0] when [run_until] first executes.

    [scheduler] (default [Binary_heap]) selects the event-queue
    implementation; see {!Gcs_util.Scheduler}. [regions] (default 1) asks
    for conservative region-parallel execution on that many domains; see
    {!regions} for when the request degrades to serial. [observers] are
    installed in list order. [hook]/[hook_every] install the (single)
    dispatch hook — the attachment point of {!Gcs_obs.Profiler}.
    [hook_every] (default 1, must be positive) makes only every
    [hook_every]-th dispatch call [before]/[after]; the engine still keeps
    exact per-kind counts (see {!dispatch_count}), so a sampling profiler
    pays two indirect calls only on sampled dispatches. A hooked engine
    always runs serially. [tamper]/[lie] install the delivery-side and
    source-side fault hooks. *)

val of_config : 'msg config -> 'msg t
(** Build the engine. The region request is resolved here: the engine runs
    region-parallel only when [regions > 1], no dispatch hook is installed,
    and every cross-region edge has a strictly positive minimum delay
    (the lookahead that makes conservative windows non-empty). Otherwise it
    falls back to the exact serial engine — results are byte-identical
    either way, so the fallback is a performance decision only. *)

val create :
  graph:Gcs_graph.Graph.t ->
  clocks:Gcs_clock.Hardware_clock.t array ->
  delays:Delay_model.t ->
  rng:Gcs_util.Prng.t ->
  make_node:(int -> 'msg handlers) ->
  t0:float ->
  'msg t
(** [create ~graph ~clocks ~delays ~rng ~make_node ~t0] is
    [of_config (config ~graph ~clocks ~delays ~rng ~make_node ~t0 ())]: a
    serial binary-heap engine with no observers or hooks, the historical
    constructor. *)

val regions : _ t -> int
(** Effective region count after {!of_config}'s resolution: [1] means the
    serial engine (whatever was requested), [> 1] means that many domains
    execute conservative windows in parallel. *)

val scheduler_kind : _ t -> Gcs_util.Scheduler.kind
(** Which event-queue implementation this engine runs on. *)

val lookahead : _ t -> float
(** Minimum cross-region delay bound — the conservative window width.
    [infinity] on a serial engine (no cross-region edges). *)

val node_region : _ t -> int -> int
(** The region a node is partitioned into (always [0] on a serial engine). *)

val now : _ t -> float
(** Current simulation time (time of the last processed event, or [t0]). *)

val run_until : 'msg t -> float -> unit
(** Process every event with timestamp [<=] the horizon; advances [now] to
    the horizon. *)

val step : 'msg t -> bool
(** Process a single event; [false] if the queue was empty. *)

val request_stop : _ t -> unit
(** Ask [run_until] to return after the event currently being dispatched —
    the cooperative cancellation used by online monitors that have seen
    enough (e.g. an invariant violation in abort mode). The flag is sticky:
    once set, every later [run_until] call returns immediately, and [now]
    stays at the last processed event instead of advancing to the horizon. *)

val stop_requested : _ t -> bool
(** Whether [request_stop] has been called on this engine. *)

val add_observer : 'msg t -> (float -> observation -> unit) -> unit
(** Append one more observer sink. The engine multiplexes each observation
    to every installed observer, in installation order — this is how the
    observability layer ({!Gcs_obs}) composes an event log, a counting
    trace, and any ad-hoc probe on the same run. *)

val clear_observer : 'msg t -> unit
(** Remove every observer. *)

val dispatch_count : _ t -> dispatch_kind -> int
(** Exact dispatches of a kind over the engine's lifetime (messages
    delivered to a handler, timers fired, control closures run) —
    maintained whether or not a hook is installed. *)

val schedule_control : 'msg t -> at:float -> (unit -> unit) -> unit
(** Run a closure at an absolute simulation time — the hook used by
    adversaries and metric probes. Closures scheduled for the past run at
    the current time. *)

val set_node_rate : 'msg t -> node:int -> rate:float -> unit
(** Change a node's hardware clock rate as of [now], rescheduling the node's
    pending timers to honour their hardware-time deadlines exactly. The
    caller (drift layer or adversary) is responsible for respecting the
    drift band. *)

val crash_node : _ t -> node:int -> unit
(** Crash-stop [node] as of [now]: its pending timers are cancelled, its
    handlers never run, and anything addressed to it is counted as a fault
    drop until recovery. Idempotent while down. The node's hardware clock
    keeps running — crash-stop kills the process, not the oscillator. *)

val recover_node : 'msg t -> node:int -> wipe:bool -> unit
(** Bring a crashed node back: with [wipe:true] its handlers are rebuilt
    from the [make_node] factory (all algorithm state lost), otherwise the
    old state is retained; either way [on_init] runs again so the algorithm
    restarts its protocol machinery. No-op if the node is up. *)

val set_edge_up : _ t -> edge:int -> up:bool -> unit
(** Partition ([up:false]) or heal ([up:true]) one edge. While down, sends
    on the edge and deliveries of messages already in flight are counted as
    fault drops. *)

val node_is_up : _ t -> int -> bool
val edge_is_up : _ t -> int -> bool

val hardware_clock : _ t -> int -> Gcs_clock.Hardware_clock.t
(** Observer access to a node's hardware clock. *)

val graph : _ t -> Gcs_graph.Graph.t

val events_processed : _ t -> int
val messages_sent : _ t -> int
val messages_delivered : _ t -> int

val messages_dropped : _ t -> int
(** Messages lost to the delay model's loss law (never delivered). *)

val messages_dropped_faults : _ t -> int
(** Messages lost to partitions or crashed receivers — counted separately
    from the loss law so fault attribution stays exact. *)

val messages_duplicated : _ t -> int
val messages_corrupted : _ t -> int

val messages_lied : _ t -> int
(** Messages rewritten at the source by a Byzantine strategy. *)

val pending_events : _ t -> int

val heap_high_water : _ t -> int
(** Deepest the event queue has been (sampled before every dispatch) — the
    capacity-planning number the profiler reports. *)

(** An entry of the event queue, as seen from outside: absolute dispatch
    time plus the observable payload. Control closures are opaque, so only
    their timing is exposed. *)
type 'msg pending =
  | Pending_deliver of {
      at : float;
      dst : int;
      port : int;
      edge : int;
      msg : 'msg;
    }
  | Pending_timer of { at : float; node : int; h_target : float; tag : int }
  | Pending_control of { at : float }

val pending_snapshot : 'msg t -> 'msg pending list
(** The event queue in exact pop order (time, ties by insertion), with stale
    timer entries — heap ghosts invalidated by rescheduling or a crash —
    filtered out. The engine is not modified. This is the state-snapshot
    hook used by the exhaustive explorer ({!Gcs_explore}) to canonicalize
    engine state; it is O(n log n) in the queue size, so it is meant for
    checkpoints, not per-event use. *)
