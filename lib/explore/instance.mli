(** A small-scope model-checking instance.

    An instance pins everything about the execution space except the
    decisions themselves: spec, topology, algorithm, seed, the segment
    length one decision governs, the maximum trace depth, the decision
    alphabet, an optional fault plan, and the monitor to check. Hardware
    drift is pinned to the perfect pattern (rate 1) so that the *only*
    drift in the space is what the decisions select — every remaining
    source of nondeterminism is a decision, which is what makes the
    enumeration exhaustive.

    Instances are deliberately tiny (2..6 nodes): the space is
    [|alphabet|^depth] executions and each is re-simulated from time zero,
    so exhaustiveness is only affordable at small scope — the small-scope
    hypothesis is that envelope bugs show up here first. *)

type t = private {
  spec : Gcs_core.Spec.t;
  topology : Gcs_graph.Topology.spec;
  algo : Gcs_core.Algorithm.kind;
  seed : int;
  segment_len : float;  (** real time governed by one decision *)
  depth : int;  (** maximum decisions per execution *)
  alphabet : Choice.t list;  (** deduplicated, order preserved *)
  fault_plan : Gcs_sim.Fault_plan.t option;
  monitor : Gcs_check.Monitor.spec;
}

val make :
  ?spec:Gcs_core.Spec.t ->
  ?topology:Gcs_graph.Topology.spec ->
  ?algo:Gcs_core.Algorithm.kind ->
  ?seed:int ->
  ?segment_len:float ->
  ?depth:int ->
  ?alphabet:Choice.t list ->
  ?fault_plan:Gcs_sim.Fault_plan.t ->
  ?monitor:Gcs_check.Monitor.spec ->
  unit ->
  t
(** Defaults: default spec, [ring:3], [Gradient_sync], seed 1, segment
    length 8, depth 3, the {!Choice.extremes} alphabet, no faults, and the
    algorithm's own envelope monitor ({!Gcs_check.Check_run.default_spec})
    in abort mode so every probe run stops at its first violation. The
    alphabet is deduplicated (order preserved). Raises [Invalid_argument]
    on depth < 1, non-positive segment length, an empty alphabet, a
    topology outside 2..6 nodes, or a fault plan that does not validate
    against the topology's graph. *)

val nodes : t -> int
(** Node count of the instance's topology (built with the sweep
    convention, like every key-described run). *)

val horizon : t -> depth:int -> float
(** [depth * segment_len] — the horizon of a depth-[depth] prefix. *)

val key : t -> depth:int -> Gcs_store.Key.t
(** The canonical store key of the depth-[depth] prefix run: perfect
    drift, no loss, the instance's fault plan. This key is what violating
    traces are packaged with, so a [.repro] written by the explorer
    replays through the stock pipeline. *)

val executions : t -> int
(** [|alphabet| ^ depth] — complete executions in the space. *)

val prefixes : t -> int
(** [sum over d in 1..depth of |alphabet| ^ d] — prefix simulations a full
    exhaustive enumeration performs (every prefix is itself checked). *)
