module Engine = Gcs_sim.Engine
module Logical_clock = Gcs_clock.Logical_clock
module Graph = Gcs_graph.Graph
module Spanning_tree = Gcs_graph.Spanning_tree
module Prng = Gcs_util.Prng

let prepare (ctx : Algorithm.ctx) =
  let tree = Spanning_tree.bfs_tree ctx.graph ~root:0 in
  let threshold = Spec.estimate_error_bound ctx.spec in
  let period = ctx.spec.beacon_period in
  let fast = 1. +. ctx.spec.mu in
  (* Deployed tree protocols (NTP/PTP) slew in both directions; a node ahead
     of its parent deliberately runs slower than its hardware clock. This
     steps outside the GCS model's "at least hardware rate" envelope (its
     alpha is 1 - mu/2 instead of 1), which is exactly how practice differs
     from the model — worth keeping faithful, since this baseline stands in
     for practice. *)
  let slow = Float.max 0.5 (1. -. (ctx.spec.mu /. 2.)) in
  fun v ->
    let lc = ctx.logical.(v) in
    let parent_port =
      if v = tree.Spanning_tree.root then None
      else Some (Graph.port_of_neighbor ctx.graph v tree.Spanning_tree.parent.(v))
    in
    let seq = ref 0 in
    let last_accepted = ref 0 in
    let arm (api : Message.t Engine.api) delay =
      api.set_timer ~after:delay ~tag:Algorithm.timer_beacon
    in
    let probe_parent (api : Message.t Engine.api) =
      match parent_port with
      | None -> ()
      | Some port ->
          incr seq;
          api.send ~port (Message.Probe { seq = !seq; h_send = api.clock.hw })
    in
    let steer (api : Message.t Engine.api) err =
      (* [err] estimates own - parent; positive means we are ahead. *)
      Logical_clock.retarget lc api.clock
        (if err < -.threshold then fast
         else if err > threshold then slow
         else 1.)
    in
    {
      Engine.on_init =
        (fun api -> arm api (Prng.uniform api.rng ~lo:0. ~hi:period));
      on_message =
        (fun api ~port msg ->
          match msg with
          | Message.Probe { seq; h_send } ->
              let value = Logical_clock.value lc ~now:api.clock.now in
              api.send ~port
                (Message.Probe_reply { seq; h_send; remote_value = value })
          | Message.Probe_reply { seq = reply_seq; h_send; remote_value } ->
              (* Replies may trail the next probe (rtt can exceed the probe
                 period); accept any reply fresher than the last one used,
                 which also discards reordered stragglers. *)
              if Some port = parent_port && reply_seq > !last_accepted then begin
                last_accepted := reply_seq;
                let h_now = api.clock.hw in
                let rtt = h_now -. h_send in
                let parent_estimate = remote_value +. (rtt /. 2.) in
                let own = Logical_clock.value lc ~now:api.clock.now in
                steer api (own -. parent_estimate)
              end
          | Message.Beacon _ | Message.Flood _ | Message.Report _
          | Message.Reset _ ->
              ());
      on_timer =
        (fun api ~tag ->
          if tag = Algorithm.timer_beacon then begin
            probe_parent api;
            arm api period
          end);
    }

let algorithm = { Algorithm.name = "tree"; prepare }
