(** Drift schedules: how a hardware clock's rate evolves over a run.

    The model constrains rates to [1, vartheta] with [vartheta = 1 + rho].
    A pattern is expanded into an explicit breakpoint schedule over a finite
    horizon, clamped into the legal band, and applied to a clock up front —
    the simulated algorithm never sees the schedule, only the clock. The
    lower-bound adversary bypasses patterns and drives rates online instead
    (see [Gcs_adversary]). *)

type pattern =
  | Constant of float
      (** Fixed rate (clamped into the band). [Constant 1.] is a perfect
          clock; [Constant nan] means "the band midpoint". *)
  | Extreme_low  (** Always the minimum rate 1. *)
  | Extreme_high  (** Always the maximum rate vartheta. *)
  | Two_phase of { switch : float; before : float; after : float }
      (** Rate [before] until real time [switch], then [after]. *)
  | Square of { period : float; low : float; high : float; phase : float }
      (** Alternate between [low] and [high] every [period / 2]. *)
  | Sinusoid of { period : float; phase : float; step : float }
      (** Rate sweeps the band sinusoidally, discretized every [step]. *)
  | Random_walk of { step : float; sigma : float }
      (** Rate performs a reflected Gaussian random walk inside the band,
          one move per [step] of real time. *)
  | Random_constant
      (** A single uniformly random rate in the band, fixed for the run. *)
  | Explicit of (float * float) list
      (** Raw [(time, rate)] change-points, times non-decreasing. *)

type band = { rate_min : float; rate_max : float }

val band : rho:float -> band
(** The paper's band [1, 1 + rho]. Requires [rho >= 0.]. *)

val schedule :
  pattern ->
  band:band ->
  t0:float ->
  horizon:float ->
  rng:Gcs_util.Prng.t ->
  (float * float) list
(** Expand a pattern into clamped [(time, rate)] change-points covering
    [t0, t0 + horizon]. The first change-point is at [t0]. Raises
    [Invalid_argument] on a square or sinusoid period, sinusoid step or
    walk step that is not positive and finite, and on a walk sigma that
    is negative or not finite. *)

val make_clock :
  pattern ->
  band:band ->
  t0:float ->
  horizon:float ->
  rng:Gcs_util.Prng.t ->
  Hardware_clock.t
(** Build a hardware clock with the whole schedule pre-applied. *)

val pattern_of_string : string -> (pattern, string) result
(** Parse CLI names: ["perfect"], ["fast"], ["slow"], ["mid"],
    ["random"], ["walk:<step>:<sigma>"], ["square:<period>"],
    ["sin:<period>"]. [Error] on anything else and on every pattern
    {!schedule} rejects (one check serves both), so every parsed pattern
    builds a clock. *)
