(** Pending-event schedulers: priority queues of int handles keyed by
    [(prio, seq)].

    The engine orders events by simulation time ([prio]) and breaks ties
    with a monotone sequence number it assigns at push time, making pop
    order total and runs reproducible. A scheduler orders plain int
    handles; the caller keeps the payload each handle names. Entries live
    in three unboxed columns (priority, sequence, handle), so pushes
    allocate nothing beyond amortized growth and no sift writes a pointer. *)

module type S = sig
  type t

  val create : ?capacity:int -> unit -> t
  (** [capacity] is a size hint; implementations grow on demand. *)

  val size : t -> int
  val is_empty : t -> bool

  val push : t -> prio:float -> seq:int -> int -> unit
  (** Insert a handle with an explicit tiebreaker. Pop order is ascending
      [(prio, seq)]; [prio] must not be NaN, which no order ranks. *)

  val min_prio : t -> float
  (** Priority of the next pop; [infinity] when empty. *)

  val min_seq : t -> int
  (** Sequence of the next pop; [max_int] when empty. *)

  val min_value : t -> int
  (** Handle of the next pop without removing it.
      @raise Invalid_argument when empty. *)

  val pop_min : t -> int
  (** Remove and return the minimum entry's handle.
      @raise Invalid_argument when empty. *)

  val clear : t -> unit

  val sorted : ?keep:(int -> bool) -> t -> (float * int * int) list
  (** Contents in exact pop order, without modification. [keep] filters
      entries out of the rendering by handle. *)
end

module Binary_heap : S
(** Reference implementation: array-backed binary min-heap. *)

module Calendar : S
(** Calendar queue (Brown 1988): amortized O(1) push/pop for the
    time-localized access pattern of a simulation. Pop order is identical
    to {!Binary_heap}'s. *)

(** {1 Packed instances}

    A scheduler as a first-class value, so callers functorized over {!S}
    can still select the implementation per run. *)

type t = {
  size : unit -> int;
  push : prio:float -> seq:int -> int -> unit;
  min_prio : unit -> float;
  min_seq : unit -> int;
  min_value : unit -> int;
  pop_min : unit -> int;
  clear : unit -> unit;
  sorted : keep:(int -> bool) -> (float * int * int) list;
}

module Pack (Q : S) : sig
  val make : ?capacity:int -> unit -> t
end

type kind = Binary_heap | Calendar

val make : ?capacity:int -> kind -> t
val kind_name : kind -> string
val kind_of_string : string -> (kind, string) result
val all_kinds : kind list
