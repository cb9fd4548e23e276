(** Canonical, content-addressed run keys.

    PR 1 made every run bit-identical for every [--jobs] and all of a
    run's randomness derives from its seed, so a completed run is a pure
    function of its canonical configuration: spec parameters, topology,
    algorithm, drift law, loss law, horizon/sampling window, seed, and
    fault plan. A {!t} is exactly that configuration, normalised so that
    equal configurations written differently (reordered fault-plan edge
    lists, [2-1] vs [1-2] endpoint pairs, duplicate cut members) produce
    the same canonical bytes — and therefore the same content address.

    Keys serialize to a versioned, line-oriented textual encoding
    ({!encode}/{!decode} round-trip), so every entry of a store is
    auditable with a pager. The address of a key is the hex digest of its
    encoding ({!hash}). [schema_version] names the engine semantics the
    result was computed under: bump {!current_schema_version} whenever a
    change makes old cached results incomparable, and stale entries stop
    being addressable (and are swept by [Store.gc]). *)

val current_schema_version : int
(** The engine-semantics generation new keys are minted with. *)

type t = private {
  schema_version : int;
  rho : float;
  mu : float;
  d_min : float;
  d_max : float;
  beacon_period : float;
  kappa : float;
  staleness_limit : float;
  topology : Gcs_graph.Topology.spec;
  algo : string;  (** canonical algorithm name, e.g. ["gradient"] *)
  drift : string;  (** canonical drift-pattern spec, e.g. ["random"] *)
  loss : float;  (** i.i.d. loss probability; [0.] = no loss *)
  horizon : float;
  sample_period : float;
  warmup : float;
  seed : int;
  fault_plan : Gcs_sim.Fault_plan.t option;  (** canonicalized *)
}

val make :
  ?schema_version:int ->
  ?drift:string ->
  ?loss:float ->
  ?fault_plan:Gcs_sim.Fault_plan.t ->
  rho:float ->
  mu:float ->
  d_min:float ->
  d_max:float ->
  beacon_period:float ->
  kappa:float ->
  staleness_limit:float ->
  topology:Gcs_graph.Topology.spec ->
  algo:string ->
  horizon:float ->
  sample_period:float ->
  warmup:float ->
  seed:int ->
  unit ->
  t
(** Build a key. [schema_version] defaults to {!current_schema_version},
    [drift] to ["random"] (the runner's default pattern), [loss] to [0.].
    The fault plan is canonicalized (see {!canonical_plan}), so two plans
    naming the same faults hash identically. *)

val canonical_plan : Gcs_sim.Fault_plan.t -> Gcs_sim.Fault_plan.t
(** Normalise a plan for hashing: endpoint pairs are oriented low-high,
    edge and cut lists sorted and deduplicated. Numbers are left alone:
    {!Gcs_sim.Fault_plan.to_string} prints every float exactly, so the
    key's text rebuilds the very plan it was made from. *)

val encode : t -> string
(** Canonical textual encoding (line-oriented [field=value], versioned
    header, trailing newline). Same key, same bytes. *)

val decode : string -> (t, string) result
(** Parse {!encode}'s output. [decode (encode k) = Ok k]. *)

val hash : t -> string
(** Content address: hex digest of {!encode}. *)
