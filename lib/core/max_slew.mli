(** Rate-limited max synchronization: the jump-free fair baseline.

    [Max_sync] achieves its skew numbers with discrete forward jumps, which
    step outside the model's bounded-rate output requirement. This variant
    plays by the rules: it keeps beacon-based estimates of each neighbor's
    logical clock and runs at the fast multiplier [1 + mu] exactly while
    some neighbor is estimated to be ahead by more than the estimate-error
    threshold — i.e., it chases the network maximum at bounded rate.

    Within the model's envelope this is the natural "greedy" algorithm: it
    reacts to *any* deficit, unlike the gradient algorithm, which
    deliberately blocks on lagging neighbors. Greed is why it has no
    non-trivial local-skew guarantee: a node adjacent to a lagging region
    still races toward the distant maximum, re-opening the gap its neighbor
    is stuck with. *)

val algorithm : Algorithm.t

val ahead_of_us : threshold:float -> float array -> int -> bool
(** [ahead_of_us ~threshold a n] holds when some estimate [a.(i)], i < n,
    has a neighbor ahead by more than [threshold] ([-. a.(i) > threshold]):
    the node's fast condition. Allocates nothing; exposed for tests. *)
