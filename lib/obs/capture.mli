(** Sink configuration and per-run capture results.

    A {!request} is a pure description of which sinks a run should
    install; the runner materialises fresh sinks from it for every run.
    Because the description carries no sink state, the same request can
    be shared across a seed sweep and across domains without any
    cross-run leakage — per-run byte identity of exports holds by
    construction. *)

type request = {
  events : bool;  (** record an event log *)
  events_format : Event_log.format;
  events_capacity : int option;  (** ring capacity; [None] = unbounded *)
  series_period : float option;
      (** record a skew series every this many time units, each point with
          its per-hop gradient profile; [None] = off *)
  series_values : bool;
      (** also include per-node logical clock values and hardware rates *)
  series_watch : (int * int) list;
      (** node pairs whose absolute skew is recorded as a dedicated series
          column — e.g. a churned edge whose decay curve an experiment
          plots; [[]] = none *)
  profile : bool;  (** run the sampled profiler *)
}

val none : request
(** Nothing captured — the default, and exactly the pre-redesign
    behaviour. *)

val full : ?series_period:float -> unit -> request
(** Event log (unbounded JSONL) + series (with values and rates; period
    defaults to 1.) + profiler. *)

type captured = {
  event_log : Event_log.t option;
  series : Series.t option;
  profile : Profiler.report option;
}
(** What a completed run hands back, populated according to the request.
    Always [empty] when the request was {!none}, which keeps
    [Runner.result] structural equality intact for determinism checks. *)

val empty : captured
