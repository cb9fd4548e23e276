(** The gradient algorithm for heterogeneous (non-uniform) networks.

    Real networks do not have one delay-uncertainty: a backplane link and a
    radio link in the same system differ by orders of magnitude. The
    non-uniform extension of gradient clock synchronization (Kuhn-Oshman)
    replaces the global skew quantum kappa with a per-edge quantum
    kappa_e derived from that edge's own delay bounds, and evaluates the
    fast condition with each neighbor measured against its own edge:

    run fast iff there is a level s >= 0 with
    - some neighbor w ahead by at least (2s + 1) * kappa_{vw}, and
    - no neighbor w' behind by more than (2s + 1) * kappa_{vw'}.

    The payoff: local skew across a *good* edge scales with that edge's
    kappa_e, not with the worst edge in the system — the uniform algorithm
    would tax every edge at the global worst case. Experiment E12 measures
    exactly this.

    Pair it with [Runner.Per_edge_delays] so the simulated delays actually
    follow the per-edge bounds. *)

val fast_trigger_ports :
  port_kappa:float array -> ports:int array -> float array -> int -> bool
(** [fast_trigger_ports ~port_kappa ~ports a n] evaluates the per-edge
    trigger on the estimates [a.(0 .. n-1)], where [a.(i)] is o_{v,w_i}
    measured across the edge at port [ports.(i)], whose quantum is
    [port_kappa.(ports.(i))]; [n = 0] never triggers. Allocates nothing,
    so a node runs it on its estimator bank's scratch. *)

val fast_trigger_hetero : kappas:float array -> offsets:float array -> bool
(** Pure per-edge trigger evaluation ([offsets.(i)] is o_{v,w_i} measured
    across an edge with quantum [kappas.(i)]): {!fast_trigger_ports} with
    [kappas] as the per-port quanta. Exposed for tests. Arrays must have
    equal length; empty arrays never trigger. *)

val algorithm : edge_bounds:(int -> Gcs_sim.Delay_model.bounds) -> Algorithm.t
(** The heterogeneous gradient algorithm. [edge_bounds] maps each edge id
    to its delay bounds; each edge's kappa is derived from them with
    {!Spec.default_kappa} (using the spec's rho and beacon period). Run it
    through [Runner.config ~override] together with
    [~delay_kind:(Per_edge_delays edge_bounds)]. *)
