(** Replication across seeds: mean and spread for any scalar measurement.

    A single simulation is one sample from the seed space; experiment
    tables that report a lone number conflate signal with seed luck. This
    helper reruns a measurement over a seed batch and reports mean, sample
    standard deviation, extremes, and a normal-approximation 95% confidence
    half-width — enough to print "12.3 ± 0.4" rows. *)

type summary = {
  mean : float;
  stddev : float;
  min : float;
  max : float;
  ci95 : float;  (** 1.96 * stddev / sqrt n; 0 for a single seed *)
  trials : int;
}

val measure : ?jobs:int -> seeds:int list -> (int -> float) -> summary
(** [measure ~seeds f] runs [f seed] for each seed. Raises
    [Invalid_argument] on an empty seed list. With [~jobs] > 1 the seeds
    are sharded across that many domains via {!Gcs_util.Pool} (default 1,
    i.e. serial); [f] must be pure modulo its seed, in which case the
    summary is identical for every [jobs]. *)

val seeds : ?base:int -> int -> int list
(** [seeds n] is a standard batch of [n] distinct seeds. *)

val to_string : ?digits:int -> summary -> string
(** ["mean ± ci95"] with the given precision (default 3). *)
