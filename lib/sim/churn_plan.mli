(** Declarative, seed-deterministic topology churn.

    A churn plan describes how the effective topology evolves over a run:
    explicit edge formations and removals, plus generative
    arrival/departure processes (per-edge on/off flapping with exponential
    holding times, growing networks whose edges appear over a window,
    shrinking networks whose edges leave for good) and mobility-derived
    schedules. Plans are pure data; {!compile} expands a plan against a
    concrete graph, seed, and horizon into an ordinary
    {!Fault_plan.t} of partition/heal events, so churn flows through the
    engine's existing per-edge masks — store keys, [.repro] replay,
    region-parallel execution, and the shrinker all work unchanged.

    [compile] elides transitions that would not change an edge's state, so
    a plan that keeps every edge up for the whole horizon compiles to
    nothing at all: unchurned runs stay bit-identical to static runs.

    Textual syntax (CLI [--churn]):

    {v
    PLAN  ::= PROC [';' PROC ...]
    PROC  ::= edge-up@T:EDGES            edges (re)form at time T
            | edge-down@T:EDGES          edges disappear at time T
            | flap@T1..T2:up=U:down=D[:EDGES]
                                         per-edge alternating on/off churn:
                                         exponential holding times with
                                         means U (up) and D (down) inside
                                         the window; forced up at T2
            | grow@T1..T2:EDGES          edges absent from t=0, appearing
                                         at evenly spread times in the
                                         window (a growing network)
            | shrink@T1..T2:EDGES        edges leave at evenly spread times
                                         in the window and stay gone
    EDGES ::= all | edges=U-V[,U-V...] | cut=V[,V...]
    v} *)

type process =
  | Edge_up of { at : float; edges : Fault_plan.edge_spec }
  | Edge_down of { at : float; edges : Fault_plan.edge_spec }
  | Flap of {
      from_ : float;
      until : float;
      up_mean : float;  (** mean up-holding time (exponential) *)
      down_mean : float;  (** mean down-holding time (exponential) *)
      edges : Fault_plan.edge_spec;
    }
      (** Per-edge continuous-time on/off churn inside [[from_, until)]:
          each edge draws alternating exponential holding times from its
          own PRNG stream (split from the compile seed), starting up, and
          is forced back up at [until]. *)
  | Grow of { from_ : float; until : float; edges : Fault_plan.edge_spec }
      (** The named edges are absent from [t = 0] and appear one by one at
          deterministically spread times inside the window. *)
  | Shrink of { from_ : float; until : float; edges : Fault_plan.edge_spec }
      (** The named edges go down at deterministically spread times inside
          the window and never come back. *)

type t
(** A plan: processes sorted by start time (stable on ties). *)

val empty : t
val processes : t -> process list

val of_processes : process list -> t
(** Sorts by start time, keeping the given order on ties. *)

val process_start : process -> float

val to_string : t -> string
(** Render in the textual syntax, every number in shortest round-trip
    form; [of_string (to_string p)] has the same processes as [p]. *)

val of_string : string -> (t, string) result
(** Parse the textual syntax (see module doc). *)

val validate : t -> Gcs_graph.Graph.t -> (unit, string) result
(** Check every process against a graph (edge pairs adjacent, node ids in
    range, times finite and non-negative, windows ordered, holding-time
    means positive) and reject contradictory schedules: two generative
    processes claiming the same edge over overlapping intervals, an
    explicit edge event landing inside a generative process's claim on
    that edge, or an [edge-up] and [edge-down] of the same edge at the
    same instant. A [grow] claims its edges from [t = 0]; a [shrink]
    claims them from its window start onward. *)

val compile :
  t ->
  graph:Gcs_graph.Graph.t ->
  seed:int ->
  horizon:float ->
  Fault_plan.t option
(** Expand the plan into partition/heal events against a concrete graph.
    All randomness (flap holding times) comes from dedicated streams split
    from [seed lxor 0xC409], one per process and then one per edge, so the
    expansion is a pure function of (plan, graph, seed) — the same inputs
    give byte-identical fault plans on any machine and any [--jobs].
    Transitions that would not change the edge's state are elided, as are
    transitions after [horizon]; [None] when nothing remains (an inert
    plan), so an unchurned config stays structurally identical to one that
    never heard of churn. Raises [Invalid_argument] on a plan {!validate}
    rejects. *)

val up_windows :
  Fault_plan.t ->
  graph:Gcs_graph.Graph.t ->
  horizon:float ->
  ((int * int) * (float * float) list) list
(** Per-pair up-intervals implied by a (compiled) fault plan's
    partition/heal events, each closed at [horizon] while the edge is
    still up. Only edges some event touches are listed — an absent pair
    is up for the whole run. This is what arms the {!Gcs_check.Monitor}
    edge-age check: interval starts are edge formation times. *)

val of_mobility :
  Mobility.t ->
  graph:Gcs_graph.Graph.t ->
  range:float ->
  sample_period:float ->
  horizon:float ->
  t
(** Derive an explicit churn schedule from node motion: at each sampling
    instant an edge is up iff its endpoints are within [range] of each
    other, and every state flip becomes an [edge-up]/[edge-down] process
    at that instant (an edge already out of range at [t = 0] goes down at
    0). Deterministic for a given trajectory set, so mobility-churned runs
    replay bit-for-bit. *)
