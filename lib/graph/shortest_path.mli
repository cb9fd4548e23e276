(** Distance computations on graphs.

    Hop distances drive the gradient-function metric f(d) of the GCS
    problem; weighted variants support delay-weighted distances (the
    "uncertainty distance" of the Fan-Lynch model in which each hop
    contributes its delay uncertainty). *)

val bfs : Graph.t -> src:int -> int array
(** Hop distances from [src]; unreachable nodes get [max_int]. *)

val all_pairs : Graph.t -> int array array
(** Hop distances between all pairs (BFS from every node): O(n^2) memory. *)

val iter_bfs : Graph.t -> (int -> int array -> unit) -> unit
(** [iter_bfs g f] calls [f v (bfs g ~src:v)] for every node [v] in
    increasing order, reusing one distance array, so memory is O(n)
    rather than {!all_pairs}' O(n^2). [f] must not keep or mutate it. *)

val diameter : Graph.t -> int
(** Maximum hop distance. Returns the closed form recorded by {!Topology}
    ({!Graph.known_diameter}) with no BFS; otherwise computes it exactly by
    iFUB (two double sweeps pick a central node, then BFS runs from its
    fringe, farthest level first, until the lower bound proves the nearer
    levels cannot exceed it). That takes a handful of BFS passes on grids,
    lines, trees and geometric graphs, but can need a large fraction of n
    on sparse G(n, p). Raises [Invalid_argument] if the graph is
    disconnected. *)

val eccentricity : Graph.t -> int -> int
(** Maximum hop distance from a node. Raises [Invalid_argument] if the
    graph is disconnected. *)

val dijkstra : Graph.t -> weights:float array -> src:int -> float array
(** Single-source shortest paths with non-negative per-edge weights indexed
    by edge id; unreachable nodes get [infinity]. Raises [Invalid_argument]
    on a negative weight. *)

val weighted_diameter : Graph.t -> weights:float array -> float
(** Maximum finite weighted distance over all pairs. *)

val bellman_ford :
  n:int ->
  arcs:(int * int * float) array ->
  src:int ->
  (float array, unit) result
(** Directed single-source shortest paths over explicit arcs
    [(src, dst, weight)]; [Error ()] if a negative cycle is reachable. *)

val floyd_warshall : Graph.t -> weights:float array -> float array array
(** All-pairs weighted distances; reference implementation for tests. *)
