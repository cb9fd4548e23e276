(** Per-edge message delay models.

    The model of the paper lets an adversary pick each message's delay
    anywhere inside known per-hop bounds [d_min, d_max]; the width
    [u = d_max - d_min] is the per-hop *uncertainty* that lower-bounds how
    well neighbors can estimate each other's clocks. Benign experiments use
    random delays inside the band; the lower-bound adversary substitutes a
    controlled chooser. *)

type bounds = { d_min : float; d_max : float }

val bounds : d_min:float -> d_max:float -> bounds
(** Validates [0 <= d_min <= d_max]. *)

val uncertainty : bounds -> float
(** [d_max - d_min]. *)

type t

val edge_bounds : t -> int -> bounds
(** Delay bounds of an edge id. *)

val draw :
  t -> edge:int -> src:int -> dst:int -> now:float -> rng:Gcs_util.Prng.t -> float
(** Draw a delay for one message. The result is always within the edge's
    bounds (the engine additionally asserts this). *)

val uniform : bounds -> t
(** Uniform draw in [d_min, d_max] for every edge. *)

val per_edge : (int -> bounds) -> t
(** Uniform draw with per-edge bounds. *)

type chooser = edge:int -> src:int -> dst:int -> now:float -> float
(** An adversarial delay chooser; results are clamped into the bounds. *)

val controlled : bounds -> default:t -> chooser option ref -> t
(** Delegates to the chooser when one is installed, otherwise to [default].
    The adversary installs/uninstalls choosers as phases change. The
    [default]'s loss law is kept, so a controlled adversary composes with a
    lossy base model.

    Lifecycle: the model captures the [ref] cell, not its contents, so
    whoever owns the cell owns the chooser's lifetime. The runner allocates
    a fresh cell per run and resets it to [None] when the run completes, so
    a chooser installed for one run can never leak into an unrelated run —
    a controlled model whose cell holds [None] is behaviorally identical to
    its [default]. *)

val drop_probability : t -> float
(** Probability that a message sent on this model is lost, i.i.d. per
    message; [0.] for all base models. The engine consults this on every
    send. *)

val with_loss : float -> t -> t
(** [with_loss p m] is [m] losing each message with probability [p],
    clamped into [0, 1]. Link churn and crashed nodes are fault-plan
    events, not loss laws. *)
