module Engine = Gcs_sim.Engine
module Logical_clock = Gcs_clock.Logical_clock
module Delay_model = Gcs_sim.Delay_model
module Graph = Gcs_graph.Graph
module Spanning_tree = Gcs_graph.Spanning_tree
module Shortest_path = Gcs_graph.Shortest_path

type stats = {
  mutable rounds_completed : int;
  mutable resets : int;
  mutable last_estimate : float;
}

let timer_monitor = 100

(* Report-deadline timers encode the round they guard so stale deadlines
   from abandoned rounds are ignored. *)
let timer_deadline_base = 200

let default_threshold spec ~diameter =
  (2. *. Bounds.gradient_global_upper spec ~diameter)
  +. (4. *. spec.Spec.kappa)

type node_state = {
  mutable round : int;
  mutable lo : float;
  mutable hi : float;
  mutable reports_pending : int;
}

let wrap ?monitor_period ?threshold ~inner () =
  let stats = { rounds_completed = 0; resets = 0; last_estimate = 0. } in
  let prepare (ctx : Algorithm.ctx) =
    let inner_factory = inner.Algorithm.prepare ctx in
    let graph = ctx.graph in
    let tree = Spanning_tree.bfs_tree graph ~root:0 in
    let spec = ctx.spec in
    let d_max = spec.Spec.delay.Delay_model.d_max in
    let mid_delay =
      0.5 *. (spec.Spec.delay.Delay_model.d_min +. d_max)
    in
    let height = float_of_int (max 1 (Spanning_tree.height tree)) in
    (* Height of the subtree under each node, for report deadlines. *)
    let height_below = Array.make (Graph.n graph) 0 in
    Array.iter
      (fun v ->
        Array.iter
          (fun c ->
            height_below.(v) <- max height_below.(v) (height_below.(c) + 1))
          tree.Spanning_tree.children.(v))
      (let order = Array.copy tree.Spanning_tree.order in
       (* bottom-up: reverse BFS order *)
       let n = Array.length order in
       Array.init n (fun i -> order.(n - 1 - i)));
    let period =
      match monitor_period with
      | Some p -> p
      | None ->
          Float.max (6. *. height *. d_max) (8. *. spec.Spec.beacon_period)
    in
    let threshold =
      match threshold with
      | Some th -> th
      | None -> default_threshold spec ~diameter:(Shortest_path.diameter graph)
    in
    fun v ->
      let inner_handlers = inner_factory v in
      let lc = ctx.logical.(v) in
      let is_root = v = tree.Spanning_tree.root in
      let parent_port =
        if is_root then None
        else
          Some (Graph.port_of_neighbor graph v tree.Spanning_tree.parent.(v))
      in
      let child_ports =
        Array.map
          (fun c -> Graph.port_of_neighbor graph v c)
          tree.Spanning_tree.children.(v)
      in
      let st = { round = -1; lo = 0.; hi = 0.; reports_pending = 0 } in
      let own_value (api : Message.t Engine.api) =
        Logical_clock.value lc ~now:api.clock.now
      in
      let send_to_children (api : Message.t Engine.api) msg =
        Array.iter (fun port -> api.send ~port msg) child_ports
      in
      let send_report (api : Message.t Engine.api) =
        match parent_port with
        | None ->
            (* Root: the round is complete; judge the estimate. *)
            let estimate = st.hi -. st.lo in
            stats.rounds_completed <- stats.rounds_completed + 1;
            stats.last_estimate <- estimate;
            if estimate > threshold then begin
              stats.resets <- stats.resets + 1;
              send_to_children api
                (Message.Reset { round = st.round; payload = own_value api })
            end
        | Some port ->
            api.send ~port
              (Message.Report { round = st.round; lo = st.lo; hi = st.hi })
      in
      let begin_round (api : Message.t Engine.api) ~round ~delta =
        st.round <- round;
        st.lo <- delta;
        st.hi <- delta;
        st.reports_pending <- Array.length child_ports;
        if st.reports_pending = 0 then send_report api
        else begin
          (* Arm a deadline so a lost report degrades the round to a
             partial view instead of wedging it. *)
          let budget =
            2.2 *. d_max *. float_of_int (height_below.(v) + 1)
          in
          api.set_timer ~after:budget ~tag:(timer_deadline_base + round)
        end
      in
      let on_monitor_timer (api : Message.t Engine.api) =
        (* Root only: start a fresh round (an unfinished one is abandoned —
           its stale reports are discarded by the round check). *)
        begin_round api ~round:(st.round + 1) ~delta:0.;
        send_to_children api
          (Message.Flood { round = st.round; payload = own_value api });
        api.set_timer ~after:period ~tag:timer_monitor
      in
      {
        Engine.on_init =
          (fun api ->
            inner_handlers.Engine.on_init api;
            if is_root then
              api.set_timer ~after:period ~tag:timer_monitor);
        on_message =
          (fun api ~port msg ->
            match msg with
            | Message.Flood { round; payload } ->
                if Some port = parent_port && round <> st.round then begin
                  let est_root = payload +. mid_delay in
                  begin_round api ~round ~delta:(own_value api -. est_root);
                  send_to_children api
                    (Message.Flood { round; payload = est_root })
                end
            | Message.Report { round; lo; hi } ->
                if round = st.round && st.reports_pending > 0 then begin
                  st.lo <- Float.min st.lo lo;
                  st.hi <- Float.max st.hi hi;
                  st.reports_pending <- st.reports_pending - 1;
                  if st.reports_pending = 0 then send_report api
                end
            | Message.Reset { round; payload } ->
                if Some port = parent_port then begin
                  let est_root = payload +. mid_delay in
                  Logical_clock.jump_to lc ~now:api.clock.now est_root;
                  send_to_children api
                    (Message.Reset { round; payload = est_root })
                end
            | Message.Beacon _ | Message.Probe _ | Message.Probe_reply _ ->
                inner_handlers.Engine.on_message api ~port msg);
        on_timer =
          (fun api ~tag ->
            if tag >= timer_deadline_base then begin
              (* Deadline for round [tag - timer_deadline_base]: if that
                 round is still open here, report what we have. *)
              if tag - timer_deadline_base = st.round && st.reports_pending > 0
              then begin
                st.reports_pending <- 0;
                send_report api
              end
            end
            else if tag = timer_monitor then on_monitor_timer api
            else inner_handlers.Engine.on_timer api ~tag);
      }
  in
  ( { Algorithm.name = "stabilized-" ^ inner.Algorithm.name; prepare }, stats )
