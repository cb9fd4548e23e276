(** Periodic time-series recorder for skew and per-node signals.

    A series is storage only: it does not know how to measure anything.
    The runner computes each point (from its samples, the metrics layer,
    and the hardware clocks) at its own cadence and calls {!record}; this
    module keeps the points in order and exports them as CSV. Keeping the
    measurement logic out of this library avoids a dependency cycle —
    [gcs.core] depends on [gcs.obs], not the other way round. *)

type point = {
  time : float;
  global_skew : float;  (** max pairwise logical-clock difference *)
  local_skew : float;  (** max difference across any live edge *)
  profile : (int * float) array;
      (** gradient profile: [(hops, max skew at that distance)], sorted by
          hop count; empty when profile capture is off *)
  values : float array;
      (** per-node logical clock values; empty when not captured *)
  rates : float array;
      (** per-node hardware rates; empty when not captured *)
  watched : float array;
      (** absolute skew of each watched node pair, in the order of the
          capture request's [series_watch]; empty when none *)
}

type t

val create : unit -> t
val record : t -> point -> unit
val length : t -> int

val points : t -> point array
(** Chronological order. *)

val csv_header :
  ?values:int -> ?rates:int -> ?hops:int -> ?watched:int -> unit -> string list
(** Column names for a series whose points carry the given array widths. *)

val csv_row : point -> string list
(** One row for one point, floats in ["%.17g"]. *)
