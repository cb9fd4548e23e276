(** Hop distances on graphs.

    Hop distances drive the gradient-function metric f(d) of the GCS
    problem. Nothing here builds an n x n matrix: a profile over all pairs
    streams one BFS source at a time through {!iter_bfs}. *)

val bfs : Graph.t -> src:int -> int array
(** Hop distances from [src]; unreachable nodes get [max_int]. *)

val iter_bfs : Graph.t -> (int -> int array -> unit) -> unit
(** [iter_bfs g f] calls [f v (bfs g ~src:v)] for every node [v] in
    increasing order, reusing one distance array, so memory is O(n)
    rather than an all-pairs matrix's O(n^2). [f] must not keep or mutate
    it. *)

val diameter : Graph.t -> int
(** Maximum hop distance. Returns the closed form recorded by {!Topology}
    ({!Graph.known_diameter}) with no BFS; otherwise computes it exactly by
    iFUB (two double sweeps pick a central node, then BFS runs from its
    fringe, farthest level first, until the lower bound proves the nearer
    levels cannot exceed it). That takes a handful of BFS passes on grids,
    lines, trees and geometric graphs, but can need a large fraction of n
    on sparse G(n, p). Raises [Invalid_argument] if the graph is
    disconnected. *)
