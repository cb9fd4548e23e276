(** The transport abstraction: what an algorithm needs from a network.

    A transport is a record of operations covering exactly the surface
    of the engine's node API plus the two pull-side operations a live
    runtime needs (receive with a deadline, pop due timers). {!Sim_shim}
    instantiates it over the stock discrete-event engine; {!Udp}
    instantiates it over real sockets. Algorithms never see the transport
    directly: {!api} re-packages one as the ordinary {!Gcs_sim.Engine.api}
    record, so every registered algorithm runs against any transport
    unchanged. *)

type delivery = { port : int; msg : Gcs_core.Message.t }

type t = {
  node : int;  (** this node's id *)
  ports : int;  (** number of incident links *)
  mono : unit -> float;
      (** the run clock: simulation time for the sim shim, monotonic
          seconds since the barrier for live transports *)
  read : Gcs_clock.Reading.t -> unit;
      (** fill a reading: [now] with [mono ()] and [hw] with the local
          hardware clock at that instant *)
  send : port:int -> Gcs_core.Message.t -> unit;
  set_timer : after:float -> tag:int -> unit;
      (** arm a one-shot timer [after] local hardware time from now
          (engine semantics: a deadline already in the past fires
          immediately) *)
  recv : deadline:float -> delivery option;
      (** block until a message arrives or [mono ()] reaches [deadline];
          [None] on deadline. Push-based transports (the sim shim) drain
          an inbox and never block. *)
  pop_due_timer : unit -> int option;
      (** the tag of the earliest pending timer whose real-time deadline
          has passed, removed from the pending set; [None] if none due *)
  next_deadline : unit -> float option;
      (** real-time deadline of the earliest pending timer, if any —
          what a pull loop sleeps towards *)
  rng : Gcs_util.Prng.t;  (** node-private deterministic randomness *)
}

val api : t -> Gcs_core.Message.t Gcs_sim.Engine.api
(** Repackage a transport as the engine's node-facing API record, with a
    clock reading of its own. The closures pass straight through, and the
    {!Driver} fills the reading from [read] before every handler, so a
    handler driven via [api] has side effects identical to one driven by
    the engine itself — the byte-identity property of {!Sim_shim} rests
    on this. *)

(** Drives a stock {!Gcs_sim.Engine.handlers} record over a transport:
    the glue that makes an unmodified algorithm a transport client. *)
module Driver : sig
  type transport = t
  type t

  val create : transport -> Gcs_core.Message.t Gcs_sim.Engine.handlers -> t

  val handlers : t -> Gcs_core.Message.t Gcs_sim.Engine.handlers
  val replace_handlers : t -> Gcs_core.Message.t Gcs_sim.Engine.handlers -> unit
  (** Swap the handler record (state-wiping recovery rebuilds a node's
      handlers from the algorithm factory, engine [recover ~wipe]
      semantics). *)

  val start : t -> unit
  (** Run [on_init]. Like {!deliver} and {!fire}, it first fills the
      API's clock reading from the transport's [read]. *)

  val deliver : t -> port:int -> Gcs_core.Message.t -> unit
  (** Run [on_message] through the transport-derived API. *)

  val fire : t -> tag:int -> unit
  (** Run [on_timer] through the transport-derived API. *)

  val step : t -> until:float -> bool
  (** One pull-loop step: fire one due timer if any, otherwise receive
      with a deadline of [min until (next timer deadline)] and deliver.
      [false] once [mono ()] has reached [until] (nothing dispatched). *)

  val run : t -> until:float -> unit
  (** Pull-loop [step] to the horizon. Live runtimes with their own
      bookkeeping (sampling, fault injection) interleave [step] calls
      instead. *)
end
