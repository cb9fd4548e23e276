(** The gradient clock synchronization algorithm (fast/slow conditions).

    This is the blocking/level algorithm of the GCS line of work that the
    Fan-Lynch paper initiated (Lenzen-Locher-Wattenhofer; the Kuhn-Oshman
    trigger formulation). Node [v] keeps beacon-based offset estimates
    o_{v,w} to each neighbor [w] and runs its logical clock at the *fast*
    multiplier [1 + mu] exactly when the fast trigger holds:

    there exists an integer level s >= 0 such that
    - some neighbor is ahead of v by at least (2s + 1) * kappa, and
    - no neighbor is behind v by more than (2s + 1) * kappa;

    otherwise it runs at multiplier 1. The quantum [kappa] must dominate
    four estimate errors (see {!Spec.default_kappa}) so that the trigger,
    evaluated on noisy estimates, is sandwiched between the ideal fast and
    slow conditions on true offsets. The resulting local skew is
    O(kappa * log_sigma D) with sigma = mu / rho — exponentially better
    than the Theta(D) of max- and tree-based synchronization, and within
    the log log factor of the Fan-Lynch lower bound.

    Estimates are refreshed by periodic beacons and the trigger is
    re-evaluated on every beacon arrival plus on a half-period re-check
    timer (estimates extrapolate between beacons, so a trigger can flip
    without a message arriving). *)

val algorithm : Algorithm.t

val node :
  ?spare:int ->
  ?port_guess:float array ->
  ?slow:float ->
  ?on_init:(Message.t Gcs_sim.Engine.api -> unit) ->
  ?on_beacon:(port:int -> Gcs_clock.Reading.t -> unit) ->
  decide:(Gcs_clock.Reading.t -> float array -> int array -> int -> bool) ->
  Algorithm.ctx ->
  int ->
  Message.t Gcs_sim.Engine.handlers
(** [node ~decide ctx v] is node [v] of every estimator-driven variant
    (this algorithm, {!Ft_gradient}, {!Max_slew}, {!Dynamic_gradient},
    {!Gradient_hetero}, {!External_sync}). It beacons its logical clock
    on every port each [beacon_period] of hardware time and re-checks
    every half period, each first armed at a uniformly jittered instant.
    On every beacon and every re-check it scans its estimator bank (see
    {!Offset_estimator.scan}) and calls [decide r offsets ports n] on the
    scan's [n] offsets and their ports, where [r] is the node's clock
    reading ({!Gcs_sim.Engine.api}'s [clock], with [r.logical] the node's
    logical clock value): the clock runs at [1 + mu] when it holds and at
    [slow] (default 1) otherwise, the multiplier set only when it changes.
    [decide] may rewrite the prefix and use the [spare] (default 0) slots
    past it. The node sends one beacon value to every port, and neither a
    delivered beacon nor a re-check allocates.

    The hooks, each optional:
    - [port_guess.(p)] replaces the delay-band midpoint as the in-flight
      progress credited to a beacon on port [p];
    - [on_init api] runs first in the engine's [on_init], so again on
      every recovery (after a wipe, on a fresh node);
    - [on_beacon ~port r] runs on each beacon before the bank records
      it, with the hardware time of its arrival in [r.hw]. *)

val fast_trigger_n : kappa:float -> float array -> int -> bool
(** [fast_trigger_n ~kappa a n] evaluates the fast trigger on the
    estimates [a.(0 .. n-1)], where [a.(i)] is o_{v,w_i} = (estimated)
    own - neighbor; [n = 0] never triggers. Allocates nothing, so a node
    runs it on its estimator bank's scratch (see {!Offset_estimator.scan})
    on every beacon. It returns for any offsets: an offset of +inf or NaN
    that leaves no level for the lag makes the trigger false. *)

val slow_trigger_n : kappa:float -> float array -> int -> bool
(** The complementary slow trigger (some neighbor behind by >= 2s * kappa,
    none ahead by more than 2s * kappa, for some level s >= 0) on
    [a.(0 .. n-1)]; [n = 0] is slow. Used in the analysis and in tests for
    mutual exclusivity; the implementation runs slow whenever the fast
    trigger does not hold. *)

val fast_trigger : kappa:float -> offsets:float array -> bool
(** {!fast_trigger_n} on the whole array. *)

val slow_trigger : kappa:float -> offsets:float array -> bool
(** {!slow_trigger_n} on the whole array. *)
