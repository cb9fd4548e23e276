(** Standard topology generators for experiments.

    The Fan-Lynch lower bound lives on the line; the gradient property is
    probed across the other families (the grid models on-chip clock
    distribution, random geometric graphs model wireless deployments).

    The four vertex-transitive families (ring, torus, complete, hypercube)
    record their closed-form diameter on the graph ({!Graph.known_diameter}):
    every node there has the same eccentricity, so no BFS bound can stop
    {!Shortest_path.diameter} early on them. *)

val line : int -> Graph.t
(** Path on [n >= 1] nodes: 0 - 1 - ... - n-1. Diameter n-1. *)

val ring : int -> Graph.t
(** Cycle on [n >= 3] nodes. Diameter floor(n/2). *)

val grid : rows:int -> cols:int -> Graph.t
(** [rows * cols] grid; node (r, c) has index [r * cols + c]. *)

val torus : rows:int -> cols:int -> Graph.t
(** Grid with wrap-around edges; requires [rows >= 3] and [cols >= 3].
    Diameter floor(rows/2) + floor(cols/2). *)

val complete : int -> Graph.t
(** Complete graph on [n >= 2] nodes. Diameter 1. *)

val star : int -> Graph.t
(** Star with center 0 and [n - 1] leaves; requires [n >= 2]. *)

val binary_tree : depth:int -> Graph.t
(** Complete binary tree of the given depth (depth 0 is a single node). *)

val hypercube : dim:int -> Graph.t
(** [2^dim] nodes, edges between indices differing in one bit. Diameter
    [dim]. *)

val random_gnp : n:int -> p:float -> rng:Gcs_util.Prng.t -> Graph.t
(** Erdos-Renyi G(n, p), post-processed to be connected by linking each
    non-root component to a uniformly random node outside it. *)

val random_geometric :
  n:int -> radius:float -> rng:Gcs_util.Prng.t -> Graph.t * (float * float) array
(** [n] points uniform in the unit square, edges between pairs at Euclidean
    distance at most [radius], connected the same way as {!random_gnp}.
    Returns the positions alongside the graph. *)

type spec =
  | Line of int
  | Ring of int
  | Grid of int * int
  | Torus of int * int
  | Complete of int
  | Star of int
  | Binary_tree of int
  | Hypercube of int
  | Random_gnp of int * float
  | Random_geometric of int * float

val build : spec -> rng:Gcs_util.Prng.t -> Graph.t
(** Build any topology from its description (randomized families draw from
    [rng]; deterministic families ignore it). *)

val build_for_seed : spec -> seed:int -> Graph.t
(** The graph of the run seeded [seed]: {!build} with an rng derived from
    the run seed. Every run a store key names is built on this graph, so
    the CLI, the store, the conformance harness, the explorer and live
    runs all agree on it. *)

val spec_name : spec -> string
(** The spec's text, which {!spec_of_string} reads back exactly: [gnp] and
    [geometric] parameters print in shortest round-trip form. *)

val spec_of_string : string -> (spec, string) result
(** Parse e.g. ["line:64"], ["grid:8x8"], ["gnp:100:0.05"]. Used by the CLI.
    A spec its generator would reject (["ring:1"], ["torus:2x5"],
    ["gnp:10:1.5"], ...) is an [Error], so every parsed spec builds. *)
