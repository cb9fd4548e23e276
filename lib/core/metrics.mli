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

val gradient_profiles :
  Gcs_graph.Graph.t -> float array array -> float array array
(** [gradient_profiles g vectors] returns one profile per vector of clock
    values: an array [p] of length [diameter] where [p.(k - 1)] is the
    maximum |L_v - L_w| over node pairs at hop distance exactly [k] — the
    empirical gradient function f(k). A NaN gap is skipped. All vectors
    share one BFS pass from every source ({!Gcs_graph.Shortest_path.iter_bfs}):
    beyond the vectors, memory is O(n) plus O(D) per profile, never an
    n x n matrix, and time is O(n (n + m)) plus O(n^2) per vector. Raises
    [Invalid_argument] if the graph is disconnected. *)

val max_gradient_profile :
  Gcs_graph.Graph.t -> sample array -> after:float -> float array
(** Pointwise maximum of the {!gradient_profiles} of the qualifying samples.
    Raises [Invalid_argument] if no sample qualifies or the graph is
    disconnected. *)
