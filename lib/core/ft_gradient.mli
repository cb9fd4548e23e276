(** Fault-containing gradient synchronization.

    The plain gradient algorithm trusts every neighbor estimate, so a single
    Byzantine node that always advertises a lagging clock suppresses the
    fast trigger on its correct neighbors — the trigger needs a level [s]
    with [ahead >= (2s+1)*kappa] {e and} [behind <= (2s+1)*kappa], and the
    liar keeps [behind] pinned arbitrarily high while genuine drift grows
    the correct-correct skew without bound.

    This variant, in the spirit of Bund, Lenzen & Rosenbaum's fault-tolerant
    gradient clock synchronization, filters the neighbor estimates before
    the trigger. First it discards every estimate outside the plausibility
    window [[-w, w]] with [w = (2f+1)*kappa] — the trigger level of step
    [f] — so an outrageous liar degrades to a crashed (silent) neighbor,
    while an in-window liar can pin "behind" at [w] and stall the fast
    trigger only until the genuine skew itself reaches level [w]. Then it
    trims the [f] highest and [f] lowest survivors, down to a floor of
    [2f+1] estimates (the connectivity Bund et al.'s analysis requires;
    below it the extremes may be a single genuine neighbor whose signal
    trimming would erase). The result is a weakened-but-bounded
    correct-correct guarantee of roughly [(2f+1)*kappa] per edge plus
    estimation slack instead of the faultless bound — the classic
    fault-tolerance price. With no liars the filter is inert in steady
    state (all estimates sit well inside the window), so the algorithm
    degrades gracefully to the plain gradient's behaviour. *)

val filter_prefix : f:int -> kappa:float -> float array -> int -> int
(** [filter_prefix ~f ~kappa a n] filters [a.(0 .. n-1)] in place and
    returns the number [k] of estimates kept in [a.(0 .. k-1)]: it drops
    estimates with magnitude above [(2f+1)*kappa], keeping the survivors
    in order, then removes the [t = min f ((n'-2f-1)/2)] smallest and [t]
    largest of the [n'] survivors (never going below [2f+1] kept), which
    leaves the rest in no particular order. Allocates nothing; the node
    runs it on its estimator bank's scratch. *)

val filter_offsets : f:int -> kappa:float -> float array -> float array
(** [filter_prefix] on a copy of the whole array. Exposed for unit
    tests. *)

val algorithm : int -> Algorithm.t
(** [algorithm f] tolerates up to [f] Byzantine neighbors per node. Raises
    [Invalid_argument] if [f < 0]. *)
