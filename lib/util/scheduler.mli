(** The event queue's priority queue: a binary min-heap of int handles
    keyed by [(prio, seq)].

    The engine orders events by simulation time ([prio]) and breaks ties
    with a monotone sequence number it assigns at push time, making pop
    order total and runs reproducible. The heap orders plain int handles;
    the caller keeps the payload each handle names. Entries live in three
    unboxed columns (priority, sequence, handle), so pushes allocate
    nothing beyond amortized growth and no sift writes a pointer. *)

type t

type key = { mutable prio : float }
(** A priority on its way into or out of the heap. A one-float record is
    stored flat, so a priority written here crosses the call unboxed,
    where a [float] argument or result would be boxed on every call. *)

val key : unit -> key
(** A fresh key, at [0.]. *)

val create : unit -> t
(** An empty heap; its columns are allocated on the first push and
    double on demand. *)

val size : t -> int
val is_empty : t -> bool

val push : t -> key -> seq:int -> int -> unit
(** [push t key ~seq v] inserts handle [v] at priority [key.prio] with an
    explicit tiebreaker. Pop order is ascending [(prio, seq)]; the
    priority must not be NaN, which no order ranks. *)

val min_prio : t -> float
(** Priority of the next pop; [infinity] when empty. *)

val min_into : t -> key -> unit
(** [min_into t key] writes {!min_prio} into [key.prio], unboxed. *)

val min_seq : t -> int
(** Sequence of the next pop; [max_int] when empty. *)

val pop_min : t -> int
(** Remove and return the minimum entry's handle.
    @raise Invalid_argument when empty. *)

val sorted : t -> (float * int * int) list
(** Contents in exact pop order, without modification. *)
