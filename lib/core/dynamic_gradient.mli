(** Gradient clock synchronization for dynamic networks.

    The static gradient algorithm treats every neighbor's offset estimate
    at face value: a neighbor far ahead forces the node into fast mode at
    once. On a dynamic network that is exactly wrong — a freshly formed
    edge may connect two nodes whose clocks legitimately differ by up to
    the *global* bound, and chasing the new neighbor at full speed rips
    open the skew on the node's *old* edges, which were promised the tight
    local gradient bound.

    Following the dynamic-GCS model (Kuhn, Lenzen, Locher, Oshman), this
    variant indexes each neighbor's influence by the edge's age: a port
    that just became live is granted a skew allowance of
    {!fresh_allowance} (the weak global bound), and the allowance decays
    linearly at {!tighten_rate} per unit time until it reaches zero —
    from then on the edge is "settled" and behaves exactly like a static
    gradient edge. Offsets are discounted by the current allowance before
    the trigger evaluates, so a fresh neighbor only influences the node
    once its estimated offset exceeds what a fresh edge is still allowed.
    The pairwise guarantee on a formed edge therefore tightens gradually
    from the global bound toward the static gradient bound, reaching it
    after [fresh_allowance / tighten_rate] time — the stabilization time
    asserted by experiment E28 and the {!Gcs_check.Monitor} edge-age
    conformance kind.

    Edge age is observed purely locally: a beacon arriving after a silence
    longer than [spec.staleness_limit] — counted from process start, so an
    edge first heard from late in the run is fresh too — restarts the
    port's age from zero. Ports that speak within the first staleness
    window are *born settled* (age infinity): every clock starts
    synchronized, so startup edges need no allowance, and granting one
    would let real skew open under the drift split before any churn even
    happens. No global knowledge of the churn schedule is required. *)

val fresh_allowance : Spec.t -> diameter:int -> float
(** Extra skew allowance granted to a just-formed edge, beyond the static
    bound: the global skew bound {!Bounds.gradient_global_upper}, the most
    two nodes that were connected through the rest of the network can
    legitimately differ by at the instant the edge appears. *)

val tighten_rate : Spec.t -> float
(** Linear decay rate of the fresh-edge allowance, per unit real time.
    Chosen at a quarter of the worst-case closing speed [mu - 2 rho] a
    fast node can guarantee against a slow drifting neighbor (capped at
    [mu / 8]): draining a fresh-edge gap is not a single-edge affair —
    the chasing node is itself held back by the level-set rule whenever
    its other neighbors trail, so the drain propagates through a chase
    chain and the effective rate is well below the pairwise closing
    speed. A quarter leaves that chain-lag headroom, keeping real skew
    inside the shrinking allowance; falls back to [mu / 8] when
    [mu <= 2 rho]. *)

val discount_prefix :
  allow0:float ->
  tighten:float ->
  Gcs_clock.Reading.t ->
  live_since:float array ->
  float array ->
  int array ->
  int ->
  unit
(** [discount_prefix ~allow0 ~tighten r ~live_since a ports n], with
    [h_local = r.hw] the node's hardware clock,
    shrinks each estimate [a.(i)], i < n, toward zero by the current
    allowance [max 0 (allow0 - tighten * (h_local - live_since.(ports.(i))))]
    of the edge at port [ports.(i)], in place and without allocating. The
    node runs it on its estimator bank's scratch before the trigger; a
    fresh neighbor is invisible to the trigger until it drifts beyond what
    a fresh edge is still entitled to. Exposed for tests. *)

val algorithm : Algorithm.t
(** The ["dynamic-gradient"] algorithm. *)
