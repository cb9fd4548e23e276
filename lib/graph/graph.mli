(** Undirected simple graphs with indexed edges and port numbering.

    Nodes are integers [0 .. n-1]. Each undirected edge has a unique id in
    [0 .. m-1]. A node sees its incident edges through local *ports*
    (positions in its adjacency list); algorithms in the synchronization
    layer address neighbors only by port, matching the message-passing model
    in which nodes need not know global identities. *)

type t

val of_edges : ?diameter:int -> n:int -> (int * int) list -> t
(** [of_edges ~n edges] builds a graph on [n] nodes. Raises
    [Invalid_argument] on self-loops, duplicate edges, or endpoints outside
    [0, n). [diameter] records a closed-form hop diameter that the caller
    guarantees (it is not checked); {!Topology}'s vertex-transitive
    generators pass it so that {!Shortest_path.diameter} needs no BFS. *)

val n : t -> int
(** Number of nodes. *)

val known_diameter : t -> int option
(** The diameter recorded by {!of_edges}, if any. *)

val m : t -> int
(** Number of undirected edges. *)

val edges : t -> (int * int) array
(** Edge endpoints indexed by edge id, with [fst < snd]. *)

val edge_endpoints : t -> int -> int * int
(** Endpoints of an edge id. *)

val degree : t -> int -> int

val neighbors : t -> int -> (int * int) array
(** [neighbors g v] is the array of [(neighbor, edge_id)] pairs, indexed by
    port. The returned array must not be mutated. *)

val neighbor_at_port : t -> int -> int -> int
(** [neighbor_at_port g v p] is the node at port [p] of node [v]. *)

val edge_at_port : t -> int -> int -> int
(** [edge_at_port g v p] is the edge id at port [p] of node [v]. *)

val port_of_neighbor : t -> int -> int -> int
(** [port_of_neighbor g v w] is the port of [v] that leads to [w].
    Raises [Not_found] if [w] is not adjacent to [v]. *)

val reverse_ports : t -> int array array
(** The reverse-port column, built in O(n + m): [(reverse_ports g).(v).(p)]
    is [port_of_neighbor g (neighbor_at_port g v p) v], the port by which
    the node at port [p] of [v] reaches [v] back. The engine builds it
    once, so a send finds the receiver's port without scanning the
    receiver's adjacency. *)

val mem_edge : t -> int -> int -> bool
val is_connected : t -> bool

val fold_edges : (int -> int -> int -> 'a -> 'a) -> t -> 'a -> 'a
(** [fold_edges f g acc] folds [f edge_id u v] over all edges. *)
