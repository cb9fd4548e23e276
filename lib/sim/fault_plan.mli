(** Declarative, composable fault plans.

    A fault plan is a time-sorted schedule of fault events injected into a
    run from outside the algorithm: link partitions and heals, crash-stop
    node failures with (optionally state-wiping) recovery, message-level
    tampering windows (duplication, bounded reordering delay, beacon-value
    corruption — a weak Byzantine mode), and clock faults (value jumps and
    out-of-band rate changes). Plans are plain data: they carry no
    randomness of their own — probabilistic faults (duplication, corruption)
    draw from dedicated per-edge PRNG streams inside the engine, so a run
    under a plan is reproducible bit-for-bit from its seed and identical
    under {!Gcs_core.Parallel_run} sharding.

    Plans serialize to and from a compact textual spec for the CLI
    ([gcs-cli faults --plan ...], [gcs-cli sweep --fault-plan ...]):

    {v
    PLAN  ::= EVENT [';' EVENT ...]
    EVENT ::= partition@T:EDGES          edges go down at time T
            | heal@T:EDGES               edges come back up
            | crash@T:node=V             crash-stop (no timers, no delivery)
            | recover@T:node=V[:wipe]    rejoin; ':wipe' rebuilds node state
            | dup@T1..T2:p=P[:EDGES]     duplicate msgs with prob P
            | reorder@T1..T2:p=P:extra=X[:EDGES]
                                         prob-P extra delay in [0, X]
            | corrupt@T1..T2:p=P:mag=M[:EDGES]
                                         prob-P value perturbation in [-M, M]
            | jump@T:node=V:delta=X      logical clock jumps by X
            | rate@T:node=V:rate=R       hardware clock rate forced to R
            | byz@T1..T2:node=V:STRAT    node V lies in its outgoing beacons
    STRAT ::= off=X                      advertise clock + X (constant lie)
            | rate=R                     lie grows R per unit time in window
            | mag=M                      fresh lie in [-M, M] per message
            | equiv=M                    equivocate: +M to higher-id
                                         neighbors, -M to lower-id ones
    EDGES ::= all
            | edges=U-V[,U-V...]         explicit endpoint pairs
            | cut=V[,V...]               every edge between the set and
                                         its complement (a graph cut)
    v} *)

(** Which edges an event applies to; resolved against the run's graph at
    install time. *)
type edge_spec =
  | All_edges
  | Edges of (int * int) list  (** explicit endpoint pairs *)
  | Cut of int list
      (** all edges with exactly one endpoint in the given node set *)

type event =
  | Link_partition of { at : float; edges : edge_spec }
  | Link_heal of { at : float; edges : edge_spec }
  | Node_crash of { at : float; node : int }
  | Node_recover of { at : float; node : int; wipe : bool }
  | Msg_duplicate of {
      from_ : float;
      until : float;
      edges : edge_spec;
      prob : float;
    }
  | Msg_reorder of {
      from_ : float;
      until : float;
      edges : edge_spec;
      prob : float;
      extra : float;  (** extra delay drawn uniformly from [0, extra] *)
    }
  | Msg_corrupt of {
      from_ : float;
      until : float;
      edges : edge_spec;
      prob : float;
      magnitude : float;  (** perturbation drawn from [-magnitude, magnitude] *)
    }
  | Clock_jump of { at : float; node : int; delta : float }
  | Clock_rate_fault of { at : float; node : int; rate : float }
  | Byzantine of {
      from_ : float;
      until : float;
      node : int;
      strategy : byz_strategy;
    }
      (** During [[from_, until)] every value the node sends is rewritten by
          [strategy]. The node itself keeps running the protocol — only what
          the rest of the network sees is a lie. *)

(** How a Byzantine node lies. Random lies draw from a dedicated per-node
    PRNG stream split after every other stream, so plans without Byzantine
    events are bit-identical to runs of an engine that knows nothing about
    them. *)
and byz_strategy =
  | Lie_constant of float  (** advertised value + offset *)
  | Lie_drifting of float  (** offset grows linearly from window start *)
  | Lie_random of float  (** fresh offset in [-mag, mag] per message *)
  | Lie_equivocate of float
      (** +mag to higher-id neighbors, -mag to lower-id ones: no two sides
          of the liar ever see consistent values *)

type t
(** A plan: events sorted by start time (stable on ties). *)

val empty : t
val events : t -> event list

val of_events : event list -> t
(** Sorts by start time, keeping the given order on ties. *)

val compose : t -> t -> t
(** Merge two plans into one schedule; on equal times, events of the first
    plan come first. *)

val event_start : event -> float

val to_string : t -> string
(** Render in the textual spec syntax, every number in shortest
    round-trip form ({!Gcs_util.Table.fmt_round_trip}); [of_string
    (to_string p)] has the same events as [p], bit for bit. *)

val of_string : string -> (t, string) result
(** Parse the textual spec syntax (see module doc). *)

val validate : t -> Gcs_graph.Graph.t -> (unit, string) result
(** Check every event against a graph: node ids in range, edge pairs
    actually adjacent, times non-negative and ranges ordered, probabilities
    in [0, 1], non-negative delays/magnitudes, positive rates. Also rejects
    incoherent Byzantine schedules: two overlapping Byzantine windows on
    one node, or a Byzantine window overlapping a crash interval of the
    same node (a crashed node sends nothing to rewrite). *)

val byzantine_nodes : t -> int list
(** Nodes with at least one Byzantine window, sorted, without duplicates. *)

val lie_delta :
  byz_strategy ->
  from_:float ->
  now:float ->
  src:int ->
  dst:int ->
  rng:Gcs_util.Prng.t ->
  float
(** The offset node [src], lying under [strategy] in a window opened at
    [from_], adds at [now] to the value it sends to [dst]. Only
    [Lie_random] draws, once from [rng] on every call. *)

val correct_edges : t -> Gcs_graph.Graph.t -> int list
(** Edge ids whose both endpoints are correct (never Byzantine in this
    plan), sorted. Byzantine episodes cover exactly these edges, so
    recovery metrics never aggregate skew against a liar's own clock. *)

val resolve_edges : Gcs_graph.Graph.t -> edge_spec -> int list
(** Edge ids an [edge_spec] names, sorted, without duplicates. Raises
    [Invalid_argument] on a pair that is not an edge (use {!validate}
    first). *)

val edge_spec_to_string : edge_spec -> string
(** Render an edge set in the textual syntax ([all] | [edges=U-V,...] |
    [cut=V,...]) — shared with {!Churn_plan}'s grammar. *)

(** {2 Grammar helpers}

    The pieces of the textual syntax that {!Churn_plan} parses with too. A
    chunk reads [KIND@TIME] followed by [':']-separated fields. *)

val parse_float : string -> string -> (float, string) result
(** [parse_float what s] reads [s] (trimmed) as a float; the error names
    [what]. *)

val parse_time_range : string -> (float * float, string) result
(** Read a ["T1..T2"] window. *)

val require_kv : string -> string list -> string -> (string, string) result
(** [require_kv what fields key] is the value of the first [KEY=VALUE]
    field, or the error ["WHAT: missing KEY=..."]. *)

val edge_spec_of_fields : string list -> (edge_spec option, string) result
(** The first field that is an edge set ([all], [edges=...] or [cut=...]),
    parsed, or [None] when no field is one. *)

(** One contiguous fault exposure, extracted from a plan for recovery
    metrics: the real-time window during which a set of edges was affected
    by one fault. *)
type episode = {
  label : string;  (** e.g. ["partition"], ["crash:5 (wipe)"], ["corrupt"] *)
  start : float;
  stop : float option;  (** heal/recover/window-end; [None] if never *)
  edges : int list;  (** affected edge ids (incident edges for node faults) *)
}

val episodes : t -> Gcs_graph.Graph.t -> episode list
(** Extract fault episodes, sorted by start time: maximal down-intervals per
    partitioned edge group, crash-to-recover intervals per node, tampering
    windows, and instantaneous clock faults (for a rate fault the episode
    closes at the next rate event on the same node, if any). *)
