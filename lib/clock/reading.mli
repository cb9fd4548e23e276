(** One node's clock reading at one real time, in a flat float record.

    A record whose fields are all floats is stored flat, so its fields are
    read and written unboxed, while a float passed to or returned from
    another module (or through a closure) is boxed on every call. The
    engine keeps one reading per region and fills [now] and [hw] before it
    runs a node's handler; the handler, its estimator bank and its
    logical clock read them from here, and {!Logical_clock.read} writes the
    node's logical value into [logical], so a dispatch moves its clock
    values between modules without allocating. *)

type t = {
  mutable now : float;  (** real time of the reading *)
  mutable hw : float;  (** the node's hardware clock at [now] *)
  mutable logical : float;
      (** the node's logical clock at [now], once {!Logical_clock.read}
          has written it *)
}

val create : unit -> t
(** A reading with every field at [0.]. *)
