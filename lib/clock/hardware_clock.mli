(** Piecewise-linear hardware clocks with bounded drift.

    The model gives each node a hardware clock [H_v] whose rate (derivative
    with respect to real time) stays within known bounds [1, vartheta]. We
    realize [H_v] as a piecewise-linear function described by rate
    breakpoints: every adversarial drift strategy used by the Fan-Lynch
    lower bound is of this form, and it admits exact forward queries [H(t)]
    and exact inversion [H^-1(h)], which the event engine needs to convert
    hardware-time timers into real-time events.

    Breakpoints may only be appended in non-decreasing time order; the last
    segment extends to infinity. The clock does not itself enforce rate
    bounds (the drift layer does), but rates must be strictly positive so
    the clock is strictly increasing and invertible. *)

type t

val create : ?h0:float -> t0:float -> rate:float -> unit -> t
(** A clock reading [h0] (default [0.]) at real time [t0], running at [rate]
    until further breakpoints. [rate] must be positive. *)

val value : t -> now:float -> float
(** [H(now)]; requires [now >= t0] of creation. *)

val read : t -> Reading.t -> unit
(** [read t r] writes [value t ~now:r.now] into [r.hw], allocating
    nothing. *)

val inverse : t -> h:float -> float
(** The unique real time at which the clock reads [h]; requires
    [h >= value t ~now:t0]. *)

val rate_at : t -> now:float -> float
(** Rate in effect at time [now] (right-continuous at breakpoints). *)

val set_rate : t -> now:float -> rate:float -> unit
(** Append a rate change effective from [now]. [now] must not precede the
    latest existing breakpoint; [rate] must be positive. Setting a rate at
    exactly the latest breakpoint replaces that breakpoint's rate. *)

val start_time : t -> float
val last_breakpoint : t -> float
(** Real time of the most recent breakpoint. *)

val breakpoint_count : t -> int
(** Number of segments. Monotone under [set_rate] except when a rate is
    replaced at the latest breakpoint — callers caching segment data (the
    engine's per-node segment columns) must invalidate on that path
    themselves. *)

val segment : t -> now:float -> float * float * float * float
(** [(t_i, v_i, r_i, t_end)] of the segment containing [now]:
    [value t ~now' = v_i +. r_i *. (now' -. t_i)] bit-exactly for any
    [now'] in [[t_i, t_end)]; [t_end] is [infinity] on the last segment.
    The engine uses this to keep struct-of-arrays clock columns hot instead
    of re-running the segment search per read. *)

val breakpoints : t -> (float * float * float) list
(** [(real_time, clock_value, rate)] per segment, oldest first. For tests
    and debugging. *)
