(** Sharded parallel execution of independent simulation configs.

    This is the batch entry point for experiment campaigns: a sweep over
    seeds × topologies × algorithms is an array of {!Runner.config}s, each
    carrying its own seed, and every run derives all of its randomness from
    that seed alone (see {!Gcs_util.Prng}). Partitioning the batch across
    domains with {!Gcs_util.Pool} therefore changes wall-clock time and
    nothing else: [run ~jobs:n] returns results bit-identical to
    [run ~jobs:1], in input order. That determinism guarantee is tested
    (qcheck, over random graph families / algorithms / seeds / loss laws)
    and is what makes parallel sweeps directly comparable to — and
    regression-checkable against — serial ones. *)

val run : ?jobs:int -> Runner.config array -> Runner.result array
(** [run ~jobs cfgs] executes every config ([jobs] defaults to
    {!Gcs_util.Pool.default_jobs}[ ()]) and returns results in input
    order. *)

val map : ?jobs:int -> f:(Runner.result -> 'a) -> Runner.config array -> 'a array
(** [map ~jobs ~f cfgs] additionally applies [f] to each result on the
    worker that produced it, so large intermediate results can be reduced
    to scalars without crossing domains. [f] must be pure. *)

(** How a cached batch was served. [fresh_dispatches] sums
    [Runner.result.dispatches] over the cells that actually simulated, so
    a fully warm batch asserts as [misses = 0] {e and}
    [fresh_dispatches = 0] — the cache provably did not run the engine. *)
type cache_stats = { hits : int; misses : int; fresh_dispatches : int }

val run_cached :
  ?jobs:int ->
  ?store:Gcs_store.Store.t ->
  Gcs_store.Key.t array ->
  Gcs_store.Outcome.t array * cache_stats
(** [run_cached ~store keys] serves each key's run from the store when the
    key is present, and simulates the rest exactly as {!run} would on
    their {!Runner.config_of_key} configs (same sharding, bit-identical
    results in input order). A hit builds no graph and no config. Every
    miss is turned into its config before any cell simulates, so a key
    that names no valid run raises [Invalid_argument] (with
    [config_of_key]'s message) before anything runs. Each worker
    persists its outcome the moment the run completes — not at batch
    end — so a killed sweep keeps everything finished so far. Without
    [?store] every key is a miss. *)

(** Order-preserving aggregate of a batch, merged deterministically. *)
type merged = {
  summaries : Metrics.summary array;  (** one per config, input order *)
  samples : (int * Metrics.sample) array;
      (** all samples of all runs, tagged with their run index, sorted by
          sample time with run index (then within-run order) breaking
          ties — a deterministic interleaving suitable for one combined
          time-series artifact *)
  events : int;  (** total engine events across the batch *)
  messages : int;  (** total messages sent *)
  dropped : int;  (** total messages lost to loss laws *)
  dropped_faults : int;  (** total messages lost to partitions/crashes *)
  jumps : Gcs_clock.Logical_clock.jump_stats;
      (** clock discontinuities aggregated across all runs *)
  series : (int * Gcs_obs.Series.point) array;
      (** all captured series points, merged like [samples]: tagged with
          their run index and stable-sorted on time only; empty when no
          run captured a series *)
  profile : Gcs_obs.Profiler.report option;
      (** {!Gcs_obs.Profiler.merge} of every captured profiler report;
          [None] when no run profiled *)
}

val merge : Runner.result array -> merged
(** Pure fold over results; independent of how they were computed. *)
