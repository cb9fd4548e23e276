module Engine = Gcs_sim.Engine
module Event_log = Gcs_obs.Event_log
module Graph = Gcs_graph.Graph
module Logical_clock = Gcs_clock.Logical_clock
module Runner = Gcs_core.Runner

let eps = 1e-6

(* Discrete rates over windows shorter than this are dominated by float
   rounding of the clock values (a few ulp of a value ~1e3 divided by the
   window), so the rate anchor only advances once the window is wide
   enough to make the estimate trustworthy to well under [eps]. *)
let rate_dt_min = 1e-3

type kind = Rate | Monotonic | Skew | Containment | Edge_age

let kind_name = function
  | Rate -> "rate"
  | Monotonic -> "monotonic"
  | Skew -> "skew"
  | Containment -> "containment"
  | Edge_age -> "edge-age"

let kind_of_string = function
  | "rate" -> Ok Rate
  | "monotonic" -> Ok Monotonic
  | "skew" -> Ok Skew
  | "containment" -> Ok Containment
  | "edge-age" -> Ok Edge_age
  | s -> Error (Printf.sprintf "unknown violation kind %S" s)

type edge_age = {
  fresh_bound : float;
  settled_bound : float;
  tighten_rate : float;
  windows : ((int * int) * (float * float) list) list;
}

type spec = {
  rate_lo : float;
  rate_hi : float;
  check_rate : bool;
  check_monotonic : bool;
  skew_bound : float option;
  after : float;
  mode : [ `Record | `Abort ];
  byzantine : int list;
  containment_bound : float option;
  edge_age : edge_age option;
}

type violation = {
  time : float;
  kind : kind;
  node : int;
  peer : int option;
  observed : float;
  bound : float;
  detail : string;
  context : string;
}

let violation_to_string v =
  let where =
    match v.peer with
    | Some p -> Printf.sprintf "nodes %d~%d" v.node p
    | None -> Printf.sprintf "node %d" v.node
  in
  let ctx = if v.context = "" then "" else " | " ^ v.context in
  Printf.sprintf "%s violation [t=%.6f, %s] %s%s" (kind_name v.kind) v.time
    where v.detail ctx

(* The monitor core is execution-agnostic: it reads node clocks through
   [read] and learns time through [now_fn], so the same checking code rides
   a running engine ([attach]) or replays a recorded sample trajectory
   ([check_samples]) — live-mode recordings are checked by the exact logic
   that checks simulations. *)
type t = {
  spec : spec;
  stop : unit -> unit;  (** cooperative abort; no-op offline *)
  read : int -> now:float -> float;  (** node's logical value at [now] *)
  now_fn : unit -> float;  (** current time, for the final flush *)
  adj : int array array;  (** neighbor node ids, own copy (hot path) *)
  ea_windows : (float * float) array option array array;
      (** per-node per-port up-intervals, parallel to [adj]: [None] means
          the pair was never touched by churn (up since the monitor's
          [ea_t0]); [Some [||]] means it was touched but never up. Empty
          outer array when the edge-age check is off. *)
  ea_t0 : float;  (** formation time assumed for untouched pairs *)
  byz : bool array;  (** nodes excluded from containment pairs *)
  mono_v : float array;  (** last seen value per node (every event) *)
  rate_t : float array;  (** rate-anchor time per node *)
  rate_v : float array;  (** rate-anchor value per node *)
  mutable events_checked : int;
  mutable violation : violation option;
  mutable finalized : bool;
}

let events_checked t = t.events_checked
let first_violation t = t.violation

let record t v =
  if t.violation = None then begin
    t.violation <- Some v;
    match t.spec.mode with `Abort -> t.stop () | `Record -> ()
  end

(* Run every enabled check for [node] at time [now]. [context] renders the
   observation that triggered the check as a single line (empty for the
   final flush); it is a thunk so the render — by far the most expensive
   step — is only paid on the rare event that actually violates.
   Observations are emitted *before* the handler runs, so the value read
   here reflects the node's state as of its previous event — a
   discontinuity introduced by event k is therefore detected at the
   node's next event, or by [finalize]. *)
let check_node t ~now ~context node =
  let cur = t.read node ~now in
  (if t.spec.check_monotonic && cur < t.mono_v.(node) -. eps then
     record t
       {
         time = now;
         kind = Monotonic;
         node;
         peer = None;
         observed = cur;
         bound = t.mono_v.(node);
         detail =
           Printf.sprintf "clock went backwards: %.17g -> %.17g"
             t.mono_v.(node) cur;
         context = context ();
       });
  t.mono_v.(node) <- cur;
  let dt = now -. t.rate_t.(node) in
  if dt >= rate_dt_min then begin
    (if t.spec.check_rate then begin
       let rate = (cur -. t.rate_v.(node)) /. dt in
       if rate < t.spec.rate_lo -. eps || rate > t.spec.rate_hi +. eps then
         record t
           {
             time = now;
             kind = Rate;
             node;
             peer = None;
             observed = rate;
             bound =
               (if rate < t.spec.rate_lo then t.spec.rate_lo
                else t.spec.rate_hi);
             detail =
               Printf.sprintf "rate %.17g outside [%.17g, %.17g]" rate
                 t.spec.rate_lo t.spec.rate_hi;
             context = context ();
           }
     end);
    t.rate_t.(node) <- now;
    t.rate_v.(node) <- cur
  end;
  (match t.spec.skew_bound with
  | Some bound when now >= t.spec.after ->
      let nbrs = t.adj.(node) in
      for i = 0 to Array.length nbrs - 1 do
        let u = nbrs.(i) in
        let d = Float.abs (cur -. t.read u ~now) in
        if d > bound +. eps then
          record t
            {
              time = now;
              kind = Skew;
              node = min node u;
              peer = Some (max node u);
              observed = d;
              bound;
              detail =
                Printf.sprintf "local skew %.17g exceeds bound %.17g" d bound;
              context = context ();
            }
      done
  | Some _ | None -> ());
  (match t.spec.containment_bound with
  | Some bound when now >= t.spec.after && not t.byz.(node) ->
      (* The fault-containment claim: Byzantine senders may wreck their own
         incident edges, but skew between *correct* adjacent nodes stays
         within the weakened bound. Liar-incident pairs are exempt. *)
      let nbrs = t.adj.(node) in
      for i = 0 to Array.length nbrs - 1 do
        let u = nbrs.(i) in
        if not t.byz.(u) then begin
          let d = Float.abs (cur -. t.read u ~now) in
          if d > bound +. eps then
            record t
              {
                time = now;
                kind = Containment;
                node = min node u;
                peer = Some (max node u);
                observed = d;
                bound;
                detail =
                  Printf.sprintf
                    "correct-correct skew %.17g exceeds containment bound \
                     %.17g" d bound;
                context = context ();
              }
        end
      done
  | Some _ | None -> ());
  match t.spec.edge_age with
  | Some ea when now >= t.spec.after && Array.length t.ea_windows > 0 ->
      (* The dynamic-network conformance claim: each adjacent pair's skew
         stays within the age-parameterized bound — the weak [fresh_bound]
         at edge formation, tightening linearly at [tighten_rate] down to
         [settled_bound]. A pair's age restarts at every up-interval start;
         while the pair is down it is unconstrained. *)
      let nbrs = t.adj.(node) in
      let wins = t.ea_windows.(node) in
      for i = 0 to Array.length nbrs - 1 do
        let u = nbrs.(i) in
        (* A pair no event ever touches is up for the whole run; a window
           starting at (or before) the monitor's birth is the same edge —
           both are born settled, because every clock starts synchronized.
           Only a formation strictly after [ea_t0] earns the fresh
           allowance. While a pair is down it is unconstrained. *)
        let formed =
          match wins.(i) with
          | None -> Some t.ea_t0
          | Some ivs ->
              let found = ref None in
              Array.iter
                (fun (s, e) -> if s <= now && now <= e then found := Some s)
                ivs;
              !found
        in
        match formed with
        | None -> ()
        | Some since ->
            let age = if since <= t.ea_t0 then infinity else now -. since in
            let bound =
              if age = infinity then ea.settled_bound
              else
                Float.max ea.settled_bound
                  (ea.fresh_bound -. (ea.tighten_rate *. age))
            in
            let d = Float.abs (cur -. t.read u ~now) in
            if d > bound +. eps then
              record t
                {
                  time = now;
                  kind = Edge_age;
                  node = min node u;
                  peer = Some (max node u);
                  observed = d;
                  bound;
                  detail =
                    Printf.sprintf
                      "skew %.17g exceeds age-%.17g bound %.17g" d age bound;
                  context = context ();
                }
      done
  | Some _ | None -> ()

let on_observation t time obs =
  if t.violation = None then
    match obs with
    | Engine.Obs_deliver { dst; _ } ->
        t.events_checked <- t.events_checked + 1;
        check_node t ~now:time
          ~context:(fun () -> Event_log.entry_to_string time obs)
          dst
    | Engine.Obs_timer { node; _ } ->
        t.events_checked <- t.events_checked + 1;
        check_node t ~now:time
          ~context:(fun () -> Event_log.entry_to_string time obs)
          node
    | _ -> ()

let byz_mask spec n =
  let b = Array.make n false in
  List.iter (fun v -> if v >= 0 && v < n then b.(v) <- true) spec.byzantine;
  b

let create spec ~graph ~stop ~read ~now_fn =
  let n = Graph.n graph in
  let now = now_fn () in
  let values = Array.init n (fun v -> read v ~now) in
  let adj = Array.init n (fun v -> Array.map fst (Graph.neighbors graph v)) in
  let ea_windows =
    match spec.edge_age with
    | None -> [||]
    | Some ea ->
        (* Window entries naming non-adjacent pairs are ignored on purpose:
           the shrinker removes edges while keeping the monitor spec fixed,
           and a window for an edge that no longer exists must not arm (or
           crash) the check. *)
        let tbl = Hashtbl.create 16 in
        List.iter
          (fun ((u, v), ivs) ->
            Hashtbl.replace tbl (min u v, max u v) (Array.of_list ivs))
          ea.windows;
        Array.init n (fun v ->
            Array.map
              (fun u -> Hashtbl.find_opt tbl (min v u, max v u))
              adj.(v))
  in
  {
    spec;
    stop;
    read;
    now_fn;
    adj;
    ea_windows;
    ea_t0 = now;
    byz = byz_mask spec n;
    mono_v = Array.copy values;
    rate_t = Array.make n now;
    rate_v = values;
    events_checked = 0;
    violation = None;
    finalized = false;
  }

let attach spec (live : Runner.live) =
  let engine = live.Runner.engine in
  let logical = live.Runner.logical in
  let t =
    create spec ~graph:live.Runner.cfg.Runner.graph
      ~stop:(fun () -> Engine.request_stop engine)
      ~read:(fun v ~now -> Logical_clock.value logical.(v) ~now)
      ~now_fn:(fun () -> Engine.now engine)
  in
  Engine.add_observer engine (fun time obs -> on_observation t time obs);
  t

let finalize t =
  if not t.finalized then begin
    t.finalized <- true;
    (* Flush: events only let us see a node's state as of its previous
       event, so a violation introduced by a node's very last event (or by
       a control-scheduled fault after it) is caught here, at the final
       clock reading. *)
    if t.violation = None then begin
      let now = t.now_fn () in
      let n = Array.length t.mono_v in
      let v = ref 0 in
      while t.violation = None && !v < n do
        check_node t ~now ~context:(fun () -> "") !v;
        incr v
      done
    end
  end;
  t.violation

(* Offline replay of a recorded (or simulated) sample trajectory through
   the same per-node checks the online monitor runs. The first row seeds
   the anchors; each later row is "the current state" for every node, so
   neighbor reads are sample-consistent. *)
let check_samples spec ~graph ~samples =
  let n = Graph.n graph in
  if Array.length samples = 0 then (None, 0)
  else begin
    let current = ref samples.(0) in
    let t =
      create spec ~graph
        ~stop:(fun () -> ())
        ~read:(fun v ~now:_ -> (!current).Gcs_core.Metrics.values.(v))
        ~now_fn:(fun () -> (!current).Gcs_core.Metrics.time)
    in
    let rows = Array.length samples in
    let i = ref 1 in
    while t.violation = None && !i < rows do
      current := samples.(!i);
      let now = (!current).Gcs_core.Metrics.time in
      let row = !i in
      let v = ref 0 in
      while t.violation = None && !v < n do
        t.events_checked <- t.events_checked + 1;
        check_node t ~now
          ~context:(fun () -> Printf.sprintf "sample row %d" row)
          !v;
        incr v
      done;
      incr i
    done;
    (t.violation, t.events_checked)
  end
