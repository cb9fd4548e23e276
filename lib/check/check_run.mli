(** Monitored runs and the conformance battery.

    [run] is the harness's one-call entry point: prepare a run, attach an
    online {!Monitor}, optionally wire in an adversary move sequence
    ({!Gcs_adversary.Search.install}), execute, and flush. [battery]
    sweeps every registered algorithm over a grid of topologies, seeds,
    and benign fault plans with monitors attached — the "correctness
    oracle" mode used by the tier-1 conformance test and [gcs-cli check
    battery]. *)

type checked = {
  live : Gcs_core.Runner.live;
      (** the finished run, for inspecting its final engine state *)
  result : Gcs_core.Runner.result;
  violation : Monitor.violation option;  (** first violation, if any *)
  events_checked : int;
}

val default_spec :
  ?mode:[ `Record | `Abort ] ->
  ?skew_bound:float ->
  ?after:float ->
  ?byzantine:int list ->
  ?containment_bound:float ->
  ?edge_age:Monitor.edge_age ->
  Gcs_core.Spec.t ->
  Gcs_core.Algorithm.kind ->
  Monitor.spec
(** The monitor an algorithm's own output requirements imply: the rate
    envelope it promises — [[1, vartheta]] for [Free_run],
    [[1, (1+mu) vartheta]] for the gradient family and [Max_slew_sync],
    [[max 0.5 (1 - mu/2), (1+mu) vartheta]] for [Tree_sync]
    (bidirectional slew), no rate check for the jump-based [Max_sync] —
    monotonicity always, and an optional adjacent-pair skew bound checked
    from [after] on. [byzantine] and [containment_bound] (defaults: none)
    arm the correct-correct containment check; [edge_age] (default: none)
    arms the dynamic-network age-parameterized check. Default mode
    [`Record]. *)

val edge_age_bounds : Gcs_core.Spec.t -> diameter:int -> Monitor.edge_age
(** The edge-age bounds implied by the spec, derived from the same helpers
    {!Gcs_core.Dynamic_gradient} plans with: settled floor
    {!Gcs_core.Bounds.gradient_local_upper}, fresh bound = settled +
    {!Gcs_core.Dynamic_gradient.fresh_allowance}, decaying at
    {!Gcs_core.Dynamic_gradient.tighten_rate}. [windows] comes back empty
    — fill it from the run's compiled churn plan
    ({!Gcs_sim.Churn_plan.up_windows}). *)

val run :
  ?monitor:Monitor.spec ->
  ?moves:Gcs_adversary.Search.move list ->
  ?segment_len:float ->
  Gcs_core.Runner.config ->
  checked
(** Run the config under a monitor ([default_spec] of the config's own
    spec and algorithm when not given). Non-empty [moves] switch the
    config to [Controlled_delays] and install the adversary schedule with
    the given [segment_len] before running. *)

type cell = {
  key : Gcs_store.Key.t;  (** canonical config — replayable on its own *)
  algo : Gcs_core.Algorithm.kind;
  monitor : Monitor.spec;
  violation : Monitor.violation option;
  events_checked : int;
}

val benign_plan :
  seed:int -> horizon:float -> nodes:int -> Gcs_sim.Fault_plan.t
(** A fault plan drawn deterministically from the seed, from the benign
    family (partition+heal, crash+recover, duplicate/reorder/corrupt
    windows) under which the rate and monotonicity envelopes must still
    hold. Clock jump/rate faults are excluded by construction — those are
    the violations the shrinker fixtures seed deliberately. *)

val battery :
  ?jobs:int ->
  ?spec:Gcs_core.Spec.t ->
  ?algos:Gcs_core.Algorithm.kind list ->
  ?faults:bool ->
  ?base_seed:int ->
  ?churn:Gcs_sim.Churn_plan.t ->
  topologies:Gcs_graph.Topology.spec list ->
  seeds:int ->
  horizon:float ->
  unit ->
  cell list
(** One monitored run per topology x algorithm x seed, in deterministic
    grid order regardless of [jobs] (default: all registered algorithms,
    [faults] on — every odd seed index gets a {!benign_plan}). Cells are
    built through [Runner.store_key] / [Runner.config_of_key], so any
    failing cell's key can be written straight into a [.repro]. With
    [churn], each cell's plan is compiled against that cell's graph and
    seed, composed into its fault plan, and the monitor is additionally
    armed with {!edge_age_bounds} over the compiled plan's up-windows —
    so churned cells are held to the dynamic-network conformance claim
    (and a static algorithm that mishandles fresh edges fails here). *)

val violations : cell list -> cell list
(** The cells whose monitor recorded a violation. *)

val byz_plan :
  seed:int ->
  horizon:float ->
  nodes:int ->
  f:int ->
  kappa:float ->
  Gcs_sim.Fault_plan.t
(** A Byzantine fault plan drawn deterministically from the seed: [f]
    liars spread around the node space, each active over the middle half
    of the run with a strategy (equivocation, constant/drifting lag,
    random) from its own derived stream and lie magnitudes of [20 *
    kappa] — far outside every containment bound, so surviving the
    battery means the lies were filtered, not mild. Raises if [f < 1] or
    [f >= nodes]. *)

val containment_bound : Gcs_core.Spec.t -> f:int -> float
(** The weakened correct-correct skew bound checked under [f] liars per
    neighborhood: the ft filter's clamp window [(2f+1) * kappa] plus
    slack for estimation error and reaction lag. *)

val attack_spec : unit -> Gcs_core.Spec.t
(** The spec the containment battery runs under by default: small kappa
    and a hot drift band ([rho = 0.05], [mu = 0.15]) so an un-contained
    run visibly diverges within a few hundred time units. *)

val containment_battery :
  ?jobs:int ->
  ?spec:Gcs_core.Spec.t ->
  ?algos:Gcs_core.Algorithm.kind list ->
  ?f:int ->
  ?base_seed:int ->
  topologies:Gcs_graph.Topology.spec list ->
  seeds:int ->
  horizon:float ->
  unit ->
  cell list
(** One monitored run per topology x algorithm x seed (default algorithms:
    just [Ft_gradient_sync 1]), each under a {!byz_plan} with [f] liars
    (default 1) and a monitor armed with {!containment_bound}. The ft
    gradient must come back clean; plain [Gradient_sync] cells are the
    deliberate-failure demonstration — their violations shrink and replay
    through the ordinary [.repro] pipeline. Defaults to {!attack_spec}. *)
