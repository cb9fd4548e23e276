module Engine = Gcs_sim.Engine
module Algorithm = Gcs_core.Algorithm
module Runner = Gcs_core.Runner

(* One driver per node, built lazily at the node's first callback (the
   engine API record only exists once the engine does). The inbox is a
   queue for shape, but holds at most one delivery: the engine hands us a
   message, we push it, and the driver's recv pops it synchronously. *)
let wrap (inner : Algorithm.t) : Algorithm.t =
  {
    Algorithm.name = inner.Algorithm.name;
    prepare =
      (fun ctx ->
        let make_inner = inner.Algorithm.prepare ctx in
        fun v ->
          let inner_handlers = make_inner v in
          let cell = ref None in
          let driver_of (api : Gcs_core.Message.t Engine.api) =
            match !cell with
            | Some di -> di
            | None ->
                let inbox = Queue.create () in
                let tr =
                  {
                    Transport.node = api.Engine.node;
                    ports = api.Engine.ports;
                    mono = (fun () -> api.Engine.clock.now);
                    read =
                      (fun r ->
                        r.now <- api.Engine.clock.now;
                        r.hw <- api.Engine.clock.hw);
                    send = api.Engine.send;
                    set_timer = api.Engine.set_timer;
                    recv =
                      (fun ~deadline:_ ->
                        if Queue.is_empty inbox then None
                        else Some (Queue.pop inbox));
                    pop_due_timer = (fun () -> None);
                    next_deadline = (fun () -> None);
                    rng = api.Engine.rng;
                  }
                in
                let d = Transport.Driver.create tr inner_handlers in
                let di = (d, inbox, tr) in
                cell := Some di;
                di
          in
          {
            Engine.on_init =
              (fun api ->
                let d, _, _ = driver_of api in
                Transport.Driver.start d);
            on_message =
              (fun api ~port msg ->
                let d, inbox, tr = driver_of api in
                Queue.push { Transport.port; msg } inbox;
                match tr.Transport.recv ~deadline:api.Engine.clock.now with
                | Some { Transport.port; msg } ->
                    Transport.Driver.deliver d ~port msg
                | None -> ());
            on_timer =
              (fun api ~tag ->
                let d, _, _ = driver_of api in
                Transport.Driver.fire d ~tag);
          })
  }

let run (cfg : Runner.config) =
  let impl =
    match cfg.Runner.override with
    | Some a -> a
    | None -> Gcs_core.Registry.get cfg.Runner.algo
  in
  Runner.run { cfg with Runner.override = Some (wrap impl) }
