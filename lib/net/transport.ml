module Engine = Gcs_sim.Engine

type delivery = { port : int; msg : Gcs_core.Message.t }

type t = {
  node : int;
  ports : int;
  mono : unit -> float;
  read : Gcs_clock.Reading.t -> unit;
  send : port:int -> Gcs_core.Message.t -> unit;
  set_timer : after:float -> tag:int -> unit;
  recv : deadline:float -> delivery option;
  pop_due_timer : unit -> int option;
  next_deadline : unit -> float option;
  rng : Gcs_util.Prng.t;
}

let api tr =
  {
    Engine.node = tr.node;
    ports = tr.ports;
    clock = Gcs_clock.Reading.create ();
    send = tr.send;
    set_timer = tr.set_timer;
    rng = tr.rng;
  }

module Driver = struct
  type transport = t

  type nonrec t = {
    transport : transport;
    api : Gcs_core.Message.t Engine.api;
    mutable handlers : Gcs_core.Message.t Engine.handlers;
  }

  let create transport handlers =
    { transport; api = api transport; handlers }

  let handlers d = d.handlers
  let replace_handlers d h = d.handlers <- h

  (* Every handler runs on a fresh reading, as the engine gives it. *)
  let refresh d = d.transport.read d.api.Engine.clock

  let start d =
    refresh d;
    d.handlers.Engine.on_init d.api

  let deliver d ~port msg =
    refresh d;
    d.handlers.Engine.on_message d.api ~port msg

  let fire d ~tag =
    refresh d;
    d.handlers.Engine.on_timer d.api ~tag

  let step d ~until =
    let tr = d.transport in
    if tr.mono () >= until then false
    else
      match tr.pop_due_timer () with
      | Some tag ->
          fire d ~tag;
          true
      | None -> (
          let deadline =
            match tr.next_deadline () with
            | Some t -> Float.min until t
            | None -> until
          in
          match tr.recv ~deadline with
          | Some { port; msg } ->
              deliver d ~port msg;
              true
          | None ->
              (* Deadline passed: either a timer came due (the next step
                 fires it) or the horizon arrived. Still a productive
                 step unless the horizon is the thing that expired. *)
              tr.mono () < until)

  let run d ~until = while step d ~until do () done
end
