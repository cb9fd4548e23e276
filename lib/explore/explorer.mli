(** Exhaustive enumeration of an instance's execution space.

    The explorer walks the decision tree of an {!Instance.t}: every node
    of the tree is a decision trace (a prefix), every leaf at the
    instance's depth is a complete execution. The engine cannot snapshot
    mid-run, so each prefix is re-simulated deterministically from time
    zero — the same inherently iterative-deepening shape as the adversary
    beam search, but exhaustive. Every prefix (not just leaves) runs under
    the instance's monitor, so a violation is reported at the shallowest
    depth that exhibits it, in deterministic exploration order.

    Memoization ([dedup]) prunes subtrees whose canonicalized engine state
    ({!Canon.state}) at the same remaining depth was already expanded. It
    is off by default and [--prove] leaves it off: canonical equality
    cannot see algorithm-handler internals or monitor history, so pruning
    trades completeness of the *proof* for speed of the *search* (a
    violation found with dedup on is still a real violation; a clean
    exhaustion with dedup on is weaker than one without). *)

type strategy = Bfs | Dfs

val strategy_name : strategy -> string
val strategy_of_string : string -> (strategy, string) result

type stats = {
  states_visited : int;  (** prefixes simulated *)
  executions : int;  (** complete (depth-d) executions simulated *)
  pruned : int;  (** prefixes not expanded because of a memo hit *)
  distinct_states : int;  (** memo table size (0 with [dedup] off) *)
  max_depth : int;  (** deepest prefix simulated *)
  frontier_high_water : int;  (** widest the frontier has been *)
  events_checked : int;  (** monitor-checked events, summed over runs *)
}

type verdict =
  | Proved  (** the full space was exhausted, no violation *)
  | Violated of { trace : Choice.trace; violation : Gcs_check.Monitor.violation }
      (** first violating prefix in exploration order *)
  | Budget_exhausted  (** state budget hit with frontier remaining *)

type outcome = {
  verdict : verdict;
  stats : stats;
  dedup : bool;
  strategy : strategy;
  quantum : float;
  max_states : int;
}

val simulate :
  Instance.t -> Choice.trace -> (Gcs_check.Check_run.checked, string) result
(** Deterministically re-simulate one prefix from time zero: the
    {!Gcs_check.Check_run.run} of the config {!Instance.key} names at the
    trace's depth, with the trace as its adversary move sequence and the
    instance's monitor. The finished live run comes back for
    {!Canon.state}. [Error] on the empty trace (a zero-horizon run) or a
    key that no longer describes a config. *)

val explore :
  ?dedup:bool ->
  ?quantum:float ->
  ?max_states:int ->
  ?strategy:strategy ->
  Instance.t ->
  outcome
(** Enumerate. Defaults: [dedup] off, [quantum] [1e-9], [max_states]
    100_000, [Bfs]. Children are generated in alphabet order; [Bfs]
    explores shallow prefixes first (the verdict's trace is
    depth-minimal), [Dfs] dives (smaller frontier high-water). The verdict
    is [Proved] only if every prefix of the space was simulated without a
    violation and without hitting the budget. Raises [Invalid_argument] if
    the instance's key stops being runnable (cannot happen for instances
    built by {!Instance.make}). *)
