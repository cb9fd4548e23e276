(** Logical (output) clocks derived from a hardware clock.

    A synchronization algorithm controls its logical clock only through a
    rate multiplier relative to its hardware clock and, for algorithms that
    allow it (e.g. max-based synchronization), discrete forward jumps.
    Between control actions, [L(t) = base + mult * (H(t) - h_base)], so the
    logical rate is [mult * dH/dt] and stays within
    [[mult_min, mult_max * vartheta]] whenever the multiplier is kept within
    [[mult_min, mult_max]] — exactly the [alpha, beta] envelope of the
    model. *)

type t

val create : hardware:Hardware_clock.t -> now:float -> value:float -> mult:float -> t
(** A logical clock reading [value] at real time [now], with initial
    multiplier [mult > 0]. *)

val value : t -> now:float -> float
(** [L(now)]; [now] must not precede the last control action. *)

val read : t -> Reading.t -> unit
(** [read t r] writes [L(r.now)] into [r.logical], computed from [r.hw],
    which must be the hardware clock's value at [r.now]. It is {!value}
    with the hardware read taken from the reading, so it gives the same
    bits and allocates nothing; [r.now] must not precede the last control
    action. *)

val values : t array -> now:float -> float array
(** [values clocks ~now] is [Array.map (fun t -> value t ~now) clocks],
    bit for bit, without boxing a value per clock: the sample of every
    node's clock a metrics probe takes. *)

val rate : t -> now:float -> float
(** Instantaneous logical rate [mult * dH/dt](now). *)

val mult : t -> float
(** Current multiplier. *)

val set_mult : t -> now:float -> float -> unit
(** Change the multiplier from [now] on; continuous (no value jump). *)

val retarget : t -> Reading.t -> float -> unit
(** [retarget t r m] is [set_mult t ~now:r.now m] when the multiplier is
    not already [m], and does nothing (allocating nothing) when it is; the
    hardware read comes from the reading, as in {!read}. *)

val jump_to : t -> now:float -> float -> unit
(** Discretely set the clock value at [now]. The caller is responsible for
    monotonicity policy (max-based algorithms only ever jump forward). *)

val advance : t -> now:float -> float -> unit
(** [advance t ~now delta] adds [delta] to the current value. *)

val hardware : t -> Hardware_clock.t

type jump_stats = { count : int; total_magnitude : float; max_magnitude : float }

val jump_stats : t -> jump_stats
(** How often and how far this clock moved discontinuously ([jump_to] /
    [advance]). Discontinuities violate the model's bounded-rate output
    requirement; experiments report them so that jump-based algorithms
    (max synchronization) are not credited with skew they achieve by
    stepping outside the problem's rules. *)

val last_action : t -> float
(** Real time of the most recent control action. *)
