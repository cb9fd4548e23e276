(** Skew metrics: the quantities the GCS problem is about.

    All metrics are computed by the omniscient observer from true logical
    clock values sampled during a run; algorithms never see them. *)

type sample = { time : float; values : float array }
(** Logical clock readings of every node at one real time. *)

val global_skew : float array -> float
(** max_{v,w} (L_v - L_w). *)

val local_skew : Gcs_graph.Graph.t -> float array -> float
(** max over edges of |L_v - L_w|. *)

val local_skew_edges : Gcs_graph.Graph.t -> float array -> float array
(** Per-edge |L_v - L_w|, indexed by edge id. *)

val skew_on_edges : Gcs_graph.Graph.t -> int list -> float array -> float
(** Max |L_v - L_w| over the given edge ids ([0.] for an empty list); the
    restriction of local skew used by fault-recovery metrics. *)

val real_time_skew : time:float -> float array -> float
(** max_v |L_v - t|: offset to true time (meaningful only for experiments
    that compare against real time; internal synchronization cannot bound
    it). *)

val global_skew_alive : alive:(int -> bool) -> float array -> float
(** Global skew restricted to nodes for which [alive] holds (crashed nodes
    freewheel and are excluded from the objective). *)

val local_skew_alive :
  Gcs_graph.Graph.t -> alive:(int -> bool) -> float array -> float
(** Local skew over edges whose both endpoints are alive. *)

val gradient_profile : dist:int array array -> float array -> float array
(** [gradient_profile ~dist values] returns an array [g] of length
    [diameter] where [g.(k - 1)] is the maximum |L_v - L_w| over node pairs
    at hop distance exactly [k] — the empirical gradient function f(k). *)

type profile_ctx
(** Precomputed flat pair list for repeated profile evaluation. *)

val profile_ctx : dist:int array array -> profile_ctx
(** Build once per graph; amortises the distance-matrix scan so each
    {!gradient_profile_ctx} call is a single flat pass over the pairs.
    The time-series recorder evaluates a profile every series point. *)

val gradient_profile_ctx : profile_ctx -> float array -> float array
(** Same result as {!gradient_profile} for the matrix the context was
    built from. *)

type summary = {
  max_global : float;
  max_local : float;
  mean_local : float;  (** time-average of the per-sample max local skew *)
  p99_local : float;
  final_global : float;
  final_local : float;
  samples_used : int;
}

val summarize :
  ?alive:(int -> bool) ->
  Gcs_graph.Graph.t ->
  sample array ->
  after:float ->
  summary
(** Aggregate over samples with [time >= after] (skipping warm-up),
    optionally restricted to alive nodes. Raises [Invalid_argument] if no
    sample qualifies. *)

val summarize_opt :
  ?alive:(int -> bool) ->
  Gcs_graph.Graph.t ->
  sample array ->
  after:float ->
  summary option
(** Like {!summarize} but [None] when no sample qualifies — the total
    variant for callers (e.g. runs with [horizon < warmup]) that want to
    fall back rather than trap. *)

val max_gradient_profile :
  Gcs_graph.Graph.t -> sample array -> after:float -> float array
(** Pointwise maximum of {!gradient_profile} over the qualifying samples,
    computed one BFS source at a time: O(n + D) memory beyond the samples,
    never an n x n matrix. Raises [Invalid_argument] if no sample qualifies
    or the graph is disconnected. *)
