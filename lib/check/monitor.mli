(** Online invariant monitors: event-granularity conformance checking.

    {!Gcs_core.Invariant} checks a *sampled* trajectory after the run; a
    violation between two samples is invisible to it. A monitor instead
    rides the engine's observer multiplexer and re-checks the involved
    node's logical clock at every delivery and timer event, so the first
    violation is caught within one event of where it happened and comes
    with its full event context (time, node, the observation that
    triggered the check). In [`Abort] mode the monitor also stops the run
    cooperatively ({!Gcs_sim.Engine.request_stop}) so a long simulation
    does not keep running past a found counterexample.

    Monitors are observers: they never touch algorithm state, timers, or
    any PRNG stream, so an attached monitor changes no run summary — the
    property bench E23 asserts, along with the <10% overhead budget. *)

type kind = Rate | Monotonic | Skew | Containment | Edge_age

val kind_name : kind -> string
val kind_of_string : string -> (kind, string) result

(** Parameters of the dynamic-network edge-age conformance check: each
    adjacent pair's skew must stay within an age-parameterized bound
    [max settled_bound (fresh_bound - tighten_rate * age)], where the
    pair's age restarts at each of its up-interval starts (from
    {!Gcs_sim.Churn_plan.up_windows}). A pair absent from [windows] is up
    from the monitor's start; a pair listed with an interval set is only
    checked while inside one of its intervals. Window entries naming
    non-adjacent pairs are ignored (the shrinker removes edges under a
    fixed monitor spec). *)
type edge_age = {
  fresh_bound : float;  (** bound granted at formation (age 0) *)
  settled_bound : float;  (** static gradient bound, the floor *)
  tighten_rate : float;  (** linear decay, bound units per unit time *)
  windows : ((int * int) * (float * float) list) list;
      (** per-pair up-intervals: [((u, v), [(up, down); ...])]. A pair
          with no entry is up (and settled) for the whole run; a window
          starting at or before the monitor's birth is settled too —
          clocks start synchronized, so only a formation strictly after
          t0 earns the fresh allowance. While a pair is between windows
          (down) it is unconstrained. *)
}

type spec = {
  rate_lo : float;  (** minimum discrete logical rate *)
  rate_hi : float;  (** maximum discrete logical rate *)
  check_rate : bool;  (** off for jump-based algorithms *)
  check_monotonic : bool;
  skew_bound : float option;
      (** when set, adjacent-pair skew must stay within this bound *)
  after : float;  (** skew checks only at times [>= after] (warm-up) *)
  mode : [ `Record | `Abort ];
      (** [`Record] = flight recorder: keep the first violation, let the
          run finish. [`Abort] = also request an engine stop on it. *)
  byzantine : int list;
      (** the fault plan's lying nodes ([[]] without Byzantine faults);
          pairs touching one are exempt from the containment check — a
          liar's own clock is unconstrained by the weakened guarantee *)
  containment_bound : float option;
      (** when set, skew between *adjacent correct* nodes must stay within
          this weakened bound from [after] on — the fault-containment
          property of {!Gcs_core.Ft_gradient} under up to [f] liars *)
  edge_age : edge_age option;
      (** when set, adjacent-pair skew must stay within the
          age-parameterized dynamic-network bound from [after] on *)
}

type violation = {
  time : float;
  kind : kind;
  node : int;  (** for [Skew], the lower id of the offending pair *)
  peer : int option;  (** the other node of a skew pair *)
  observed : float;  (** offending rate / value / skew *)
  bound : float;  (** the envelope edge or bound it crossed *)
  detail : string;  (** human-readable, [%.17g] floats (repro-exact) *)
  context : string;
      (** single-line rendering of the triggering observation; [""] when
          the violation surfaced in the final flush *)
}

val violation_to_string : violation -> string

type t

val attach : spec -> Gcs_core.Runner.live -> t
(** Install a monitor on a prepared run (between [Runner.prepare] and
    [Runner.complete]). Seeds its per-node state from the logical clock
    values at the engine's current time. *)

val finalize : t -> violation option
(** Flush: observations fire *before* handlers, so each event's effect is
    only visible at the node's next event — the final flush re-checks
    every node at the engine's current time to close that gap. Returns the
    first violation (idempotent). *)

val events_checked : t -> int
(** Delivery/timer events the monitor has checked. *)

val check_samples :
  spec ->
  graph:Gcs_graph.Graph.t ->
  samples:Gcs_core.Metrics.sample array ->
  violation option * int
(** Replay a sampled trajectory — e.g. one recorded from a live UDP run —
    through the same per-node checks the online monitor applies, at
    sample granularity: the first row seeds the monotonic and rate
    anchors, every later row re-checks every node. Returns the first
    violation (if any) and the number of node-checks performed. *)
