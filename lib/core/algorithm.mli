(** The common shape of a synchronization algorithm.

    An algorithm receives a static context — the problem spec, the graph
    (used only for *static* precomputation such as the BFS tree a deployed
    system would configure at installation time), and the array of logical
    clocks — and yields per-node engine handlers. The handlers for node [v]
    may touch only [logical.(v)] and the information reaching them through
    the engine API; the shared context mirrors what a real deployment
    distributes out of band. A handler reads the time of its event from
    its API's clock reading ({!Gcs_sim.Engine.api}). *)

type ctx = {
  spec : Spec.t;
  graph : Gcs_graph.Graph.t;
  logical : Gcs_clock.Logical_clock.t array;
}

type t = {
  name : string;
  prepare : ctx -> int -> Message.t Gcs_sim.Engine.handlers;
      (** [prepare ctx] performs per-run static precomputation (e.g. the BFS
          tree) and returns the node factory; the runner applies it once and
          reuses the closure for every node. *)
}

(** Which of the built-in algorithms to run. [Dynamic_gradient_sync] is
    the dynamic-network gradient variant whose fresh edges tighten
    gradually (see {!Dynamic_gradient}); [Ft_gradient_sync f] is the
    fault-containing gradient variant tolerating up to [f] Byzantine
    neighbors per node (see {!Ft_gradient}). *)
type kind =
  | Free_run
  | Max_sync
  | Max_slew_sync
  | Tree_sync
  | Gradient_sync
  | Dynamic_gradient_sync
  | Ft_gradient_sync of int

val kind_name : kind -> string

val kind_of_string : string -> (kind, string) result
(** Accepts the [kind_name] spellings plus aliases; for the fault-tolerant
    gradient, ["ft-gradient-N"] selects budget [N], and ["ft-gradient"] or
    ["ft"] default to [N = 1]. *)

val all_kinds : kind list
(** One representative per algorithm family ([Ft_gradient_sync 1] for the
    fault-tolerant gradient). *)

val timer_beacon : int
(** Timer tag used by all algorithms for their periodic beacon/probe. *)

val timer_recheck : int
(** Timer tag used for trigger re-evaluation between beacons. *)
