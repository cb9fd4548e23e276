module Prng = Gcs_util.Prng
module Scheduler = Gcs_util.Scheduler
module Graph = Gcs_graph.Graph
module Hardware_clock = Gcs_clock.Hardware_clock

type 'msg api = {
  node : int;
  ports : int;
  hardware : unit -> float;
  send : port:int -> 'msg -> unit;
  set_timer : h:float -> tag:int -> unit;
  rng : Prng.t;
}

type 'msg handlers = {
  on_init : 'msg api -> unit;
  on_message : 'msg api -> port:int -> 'msg -> unit;
  on_timer : 'msg api -> tag:int -> unit;
}

(* Timer identity is (slot, gen) in the owning region's slot pool: a heap
   entry fires only if the slot still holds that generation, so re-keying
   and cancellation are one generation bump, never a queue traversal. *)
type 'msg event =
  | Deliver of { dst : int; port : int; edge : int; msg : 'msg }
  | Timer_fire of { node : int; slot : int; gen : int }
  | Control of (unit -> unit)

type observation =
  | Obs_send of { src : int; dst : int; edge : int; delay : float }
  | Obs_drop of { src : int; dst : int; edge : int }
  | Obs_deliver of { dst : int; port : int }
  | Obs_timer of { node : int; tag : int }
  | Obs_rate_change of { node : int; rate : float }
  | Obs_node_down of { node : int }
  | Obs_node_up of { node : int; wipe : bool }
  | Obs_edge_down of { edge : int }
  | Obs_edge_up of { edge : int }
  | Obs_fault_drop of { src : int; dst : int; edge : int }
  | Obs_duplicate of { src : int; dst : int; edge : int }
  | Obs_corrupt of { src : int; dst : int; edge : int }
  | Obs_lie of { src : int; dst : int; edge : int }

type 'msg tamper = {
  extra_delay : edge:int -> now:float -> rng:Prng.t -> float;
  corrupt : edge:int -> now:float -> rng:Prng.t -> 'msg -> 'msg option;
  duplicate : edge:int -> now:float -> rng:Prng.t -> bool;
}

(* Source-side Byzantine rewrite: unlike [tamper] (the network lies to the
   receiver), a lie is keyed by the *sender* and may differ per receiver
   (equivocation). [None] means the message goes out untouched. *)
type 'msg lie =
  src:int -> dst:int -> now:float -> rng:Prng.t -> 'msg -> 'msg option

type dispatch_kind = Dispatch_deliver | Dispatch_timer | Dispatch_control

type dispatch_hook = {
  before : dispatch_kind -> unit;
  after : dispatch_kind -> unit;
}

(* ------------------------------------------------------------------ *)
(* Per-node timer state, struct-of-arrays: one slot pool per region     *)
(* holding hardware deadlines, tags, owners, and generation counters in *)
(* parallel columns, with per-node intrusive doubly-linked slot lists   *)
(* so re-keying and crash cancellation walk only the node's own slots.  *)
(* ------------------------------------------------------------------ *)

type timer_pool = {
  mutable tp_h : float array; (* hardware deadline *)
  mutable tp_tag : int array;
  mutable tp_owner : int array; (* node id; -1 = free *)
  mutable tp_gen : int array; (* bumped on free/re-key: stale entries no-op *)
  mutable tp_next : int array; (* per-node slot list links *)
  mutable tp_prev : int array;
  mutable tp_free : int array; (* free-slot stack *)
  mutable tp_free_top : int;
  mutable tp_cap : int;
}

let pool_create () =
  {
    tp_h = [||];
    tp_tag = [||];
    tp_owner = [||];
    tp_gen = [||];
    tp_next = [||];
    tp_prev = [||];
    tp_free = [||];
    tp_free_top = 0;
    tp_cap = 0;
  }

let pool_grow p =
  let ncap = if p.tp_cap = 0 then 16 else 2 * p.tp_cap in
  let extend a fill =
    let na = Array.make ncap fill in
    Array.blit a 0 na 0 p.tp_cap;
    na
  in
  p.tp_h <- extend p.tp_h 0.;
  p.tp_tag <- extend p.tp_tag 0;
  p.tp_owner <- extend p.tp_owner (-1);
  p.tp_gen <- extend p.tp_gen 0;
  p.tp_next <- extend p.tp_next (-1);
  p.tp_prev <- extend p.tp_prev (-1);
  let nfree = Array.make ncap 0 in
  Array.blit p.tp_free 0 nfree 0 p.tp_free_top;
  p.tp_free <- nfree;
  (* Push fresh slots in reverse so low indices allocate first. *)
  for s = ncap - 1 downto p.tp_cap do
    p.tp_free.(p.tp_free_top) <- s;
    p.tp_free_top <- p.tp_free_top + 1
  done;
  p.tp_cap <- ncap

(* [heads.(node)] is the first slot of the node's pending-timer list. *)
let pool_alloc p heads ~node ~h ~tag =
  if p.tp_free_top = 0 then pool_grow p;
  p.tp_free_top <- p.tp_free_top - 1;
  let s = p.tp_free.(p.tp_free_top) in
  p.tp_h.(s) <- h;
  p.tp_tag.(s) <- tag;
  p.tp_owner.(s) <- node;
  let head = heads.(node) in
  p.tp_next.(s) <- head;
  p.tp_prev.(s) <- -1;
  if head >= 0 then p.tp_prev.(head) <- s;
  heads.(node) <- s;
  s

let pool_free p heads s =
  let node = p.tp_owner.(s) in
  let nx = p.tp_next.(s) and pv = p.tp_prev.(s) in
  if pv >= 0 then p.tp_next.(pv) <- nx else heads.(node) <- nx;
  if nx >= 0 then p.tp_prev.(nx) <- pv;
  p.tp_owner.(s) <- -1;
  p.tp_gen.(s) <- p.tp_gen.(s) + 1;
  p.tp_free.(p.tp_free_top) <- s;
  p.tp_free_top <- p.tp_free_top + 1

let[@inline] pool_live p ~slot ~gen =
  p.tp_gen.(slot) = gen && p.tp_owner.(slot) >= 0

(* ------------------------------------------------------------------ *)
(* Region context: one event queue, clock position, window buffers and  *)
(* counter deltas per partition region. A serial engine is exactly one  *)
(* region with no window machinery.                                     *)
(* ------------------------------------------------------------------ *)

(* Buffered effects of one window dispatch, replayed in serial order at
   the barrier (see "Conservative region-parallel execution" below). *)
type 'msg witem =
  | W_nop
  | W_obs of { at : float; obs : observation }
  | W_imm of int (* lane index of a push already made into the region queue *)
  | W_push of { prio : float; ev : 'msg event } (* arrival beyond the window *)
  | W_cross of {
      at : float;
      src : int;
      dst : int;
      edge : int;
      dst_port : int;
      msg : 'msg;
      lied : bool;
    }

type 'msg rctx = {
  rid : int;
  q : 'msg event Scheduler.t;
  pool : timer_pool;
  now_ref : float ref;
  mutable cur_wend : float;
  (* pop log: the window's dispatch order, (prio, seq, first-item index) *)
  mutable pop_prio : float array;
  mutable pop_seq : int array;
  mutable pop_item : int array;
  mutable pop_len : int;
  mutable items : 'msg witem array;
  mutable items_len : int;
  mutable lane_count : int; (* in-window pushes, for lane sequence numbers *)
  mutable final_seq : int array; (* lane index -> final seq (set at merge) *)
  (* counter deltas, folded into the engine totals at each barrier *)
  mutable c_events : int;
  mutable c_sent : int;
  mutable c_delivered : int;
  mutable c_dropped : int;
  mutable c_dropped_faults : int;
  mutable c_duplicated : int;
  mutable c_corrupted : int;
  mutable c_lied : int;
  mutable c_timers : int;
}

let rctx_create ~rid ~kind =
  {
    rid;
    q = Scheduler.make kind;
    pool = pool_create ();
    now_ref = ref 0.;
    cur_wend = infinity;
    pop_prio = [||];
    pop_seq = [||];
    pop_item = [||];
    pop_len = 0;
    items = [||];
    items_len = 0;
    lane_count = 0;
    final_seq = [||];
    c_events = 0;
    c_sent = 0;
    c_delivered = 0;
    c_dropped = 0;
    c_dropped_faults = 0;
    c_duplicated = 0;
    c_corrupted = 0;
    c_lied = 0;
    c_timers = 0;
  }

type 'msg t = {
  graph : Graph.t;
  clocks : Hardware_clock.t array;
  delays : Delay_model.t;
  sched_kind : Scheduler.kind;
  nregions : int; (* effective region count (1 = serial) *)
  node_region : int array;
  edge_cross : bool array;
  lookahead : float; (* min d_min over cross-region edges *)
  regions : 'msg rctx array;
  ctrl_q : 'msg event Scheduler.t; (* separate only when nregions > 1 *)
  mutable next_seq : int;
  mutable handlers : 'msg handlers array;
  make_node : int -> 'msg handlers; (* kept for state-wiping recovery *)
  mutable apis : 'msg api array;
  node_timer_head : int array; (* slot list heads (slots are region-local) *)
  link_rngs : Prng.t array; (* one per edge, for delay draws *)
  (* Dedicated per-edge streams for fault randomness (tampering draws,
     duplicate-copy delays). Split from the engine rng *after* node and link
     streams, so a run without faults is bit-identical to one on an engine
     built before faults existed. *)
  fault_rngs : Prng.t array;
  (* Dedicated per-node streams for Byzantine lie randomness, split after
     the fault streams for the same reason. *)
  byz_rngs : Prng.t array;
  node_up : bool array;
  edge_up : bool array;
  (* Struct-of-arrays clock columns: the live segment of each node's
     piecewise-linear hardware clock, so the hot path reads are one
     multiply-add on parallel float arrays instead of a segment search.
     Refreshed when the epoch (breakpoint count) moves or [now] leaves the
     cached segment. *)
  seg_t : float array;
  seg_v : float array;
  seg_r : float array;
  seg_until : float array;
  seg_epoch : int array;
  mutable tamper : 'msg tamper option;
  mutable lie : 'msg lie option;
  mutable now : float;
  mutable started : bool;
  mutable par_active : bool; (* a window is executing on the region domains *)
  mutable events_processed : int;
  mutable messages_sent : int;
  mutable messages_delivered : int;
  mutable messages_dropped : int;
  mutable messages_dropped_faults : int;
  mutable messages_duplicated : int;
  mutable messages_corrupted : int;
  mutable messages_lied : int;
  mutable observers : (float -> observation -> unit) array;
  mutable dispatch_hook : dispatch_hook option;
  mutable hook_every : int;
  mutable hook_left : int;
  mutable hook_armed : bool;
  mutable timers_fired : int;
  mutable controls_run : int;
  mutable heap_high_water : int;
  mutable stop_requested : bool;
}

(* Lane sequence numbers: in-window pushes carry provisional sequence
   numbers above this base (strictly greater than any final sequence the
   global counter will ever hand out), distinct per region by residue.
   They exist only within one window — the barrier maps each to the final
   sequence the serial engine would have assigned. *)
let lane_base = max_int / 2

(* Region-local simulation time for the domain currently executing a
   window, so [now] (and through it every algorithm's [ctx.now ()]) reads
   the region clock while a window runs. *)
let dls_region_now : float ref option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let now t =
  if t.nregions > 1 then
    match Domain.DLS.get dls_region_now with Some r -> !r | None -> t.now
  else t.now

(* ---------------- declarative construction ---------------- *)

type 'msg config = {
  cfg_graph : Graph.t;
  cfg_clocks : Hardware_clock.t array;
  cfg_delays : Delay_model.t;
  cfg_rng : Prng.t;
  cfg_make_node : int -> 'msg handlers;
  cfg_t0 : float;
  cfg_scheduler : Scheduler.kind;
  cfg_regions : int;
  cfg_observers : (float -> observation -> unit) list;
  cfg_hook : dispatch_hook option;
  cfg_hook_every : int;
  cfg_tamper : 'msg tamper option;
  cfg_lie : 'msg lie option;
}

let config ?(scheduler = Scheduler.Binary_heap) ?(regions = 1)
    ?(observers = []) ?hook ?(hook_every = 1) ?tamper ?lie ~graph ~clocks
    ~delays ~rng ~make_node ~t0 () =
  if regions < 1 then invalid_arg "Engine.config: regions must be >= 1";
  if hook_every <= 0 then
    invalid_arg "Engine.config: hook_every must be > 0";
  {
    cfg_graph = graph;
    cfg_clocks = clocks;
    cfg_delays = delays;
    cfg_rng = rng;
    cfg_make_node = make_node;
    cfg_t0 = t0;
    cfg_scheduler = scheduler;
    cfg_regions = regions;
    cfg_observers = observers;
    cfg_hook = hook;
    cfg_hook_every = hook_every;
    cfg_tamper = tamper;
    cfg_lie = lie;
  }

let observe t obs =
  let fs = t.observers in
  for i = 0 to Array.length fs - 1 do
    fs.(i) t.now obs
  done

let observe_at t at obs =
  let fs = t.observers in
  for i = 0 to Array.length fs - 1 do
    fs.(i) at obs
  done

(* ---------------- window buffers ---------------- *)

let witem_add c it =
  let cap = Array.length c.items in
  if c.items_len = cap then begin
    let ncap = if cap = 0 then 64 else 2 * cap in
    let na = Array.make ncap W_nop in
    Array.blit c.items 0 na 0 c.items_len;
    c.items <- na
  end;
  c.items.(c.items_len) <- it;
  c.items_len <- c.items_len + 1

let pop_log_add c prio seq =
  let cap = Array.length c.pop_prio in
  if c.pop_len = cap then begin
    let ncap = if cap = 0 then 64 else 2 * cap in
    let np = Array.make ncap 0. in
    let ns = Array.make ncap 0 in
    let ni = Array.make ncap 0 in
    Array.blit c.pop_prio 0 np 0 c.pop_len;
    Array.blit c.pop_seq 0 ns 0 c.pop_len;
    Array.blit c.pop_item 0 ni 0 c.pop_len;
    c.pop_prio <- np;
    c.pop_seq <- ns;
    c.pop_item <- ni
  end;
  c.pop_prio.(c.pop_len) <- prio;
  c.pop_seq.(c.pop_len) <- seq;
  c.pop_item.(c.pop_len) <- c.items_len;
  c.pop_len <- c.pop_len + 1

let lane_reserve c =
  let k = c.lane_count in
  c.lane_count <- k + 1;
  if k >= Array.length c.final_seq then begin
    let ncap = max 64 (2 * Array.length c.final_seq) in
    let na = Array.make ncap 0 in
    Array.blit c.final_seq 0 na 0 k;
    c.final_seq <- na
  end;
  k

(* ---------------- shared primitives ---------------- *)

let[@inline] fresh_seq t =
  let s = t.next_seq in
  t.next_seq <- s + 1;
  s

let[@inline] emit t wctx at obs =
  match wctx with
  | None -> observe t obs
  | Some c -> if Array.length t.observers > 0 then witem_add c (W_obs { at; obs })

(* Push an event destined for [region]'s queue. In window mode ([wctx]) a
   push landing inside the current window enters the queue immediately
   under a lane sequence (and is recorded for barrier re-sequencing);
   anything at or beyond the window end is deferred to the barrier so the
   region queues only ever hold finally-sequenced events between windows. *)
let push_region_event t wctx ~region ~prio ev =
  match wctx with
  | None -> Scheduler.(t.regions.(region).q.push) ~prio ~seq:(fresh_seq t) ev
  | Some c ->
      if prio < c.cur_wend then begin
        let k = lane_reserve c in
        witem_add c (W_imm k);
        c.q.Scheduler.push ~prio ~seq:(lane_base + (k * t.nregions) + c.rid) ev
      end
      else witem_add c (W_push { prio; ev })

let[@inline] hw_value t v ~now =
  let ep = Hardware_clock.breakpoint_count t.clocks.(v) in
  if t.seg_epoch.(v) <> ep || now >= t.seg_until.(v) || now < t.seg_t.(v)
  then begin
    let ts, vs, rs, until = Hardware_clock.segment t.clocks.(v) ~now in
    t.seg_t.(v) <- ts;
    t.seg_v.(v) <- vs;
    t.seg_r.(v) <- rs;
    t.seg_until.(v) <- until;
    t.seg_epoch.(v) <- ep
  end;
  t.seg_v.(v) +. (t.seg_r.(v) *. (now -. t.seg_t.(v)))

let push_timer_event t wctx ~node ~slot ~gen ~h_target ~now =
  let h_now = hw_value t node ~now in
  let fire_at =
    (* A deadline already reached (or predating the clock) fires now. On
       the clock's last segment, which [hw_value] has just cached, the
       inverse is the same arithmetic [Hardware_clock.inverse] does there. *)
    if h_target <= h_now then now
    else if t.seg_until.(node) = infinity && h_target >= t.seg_v.(node) then
      Float.max now
        (t.seg_t.(node) +. ((h_target -. t.seg_v.(node)) /. t.seg_r.(node)))
    else Float.max now (Hardware_clock.inverse t.clocks.(node) ~h:h_target)
  in
  push_region_event t wctx ~region:t.node_region.(node) ~prio:fire_at
    (Timer_fire { node; slot; gen })

(* The send path. Serial mode ([wctx = None]) performs every draw and push
   directly, exactly like the classic single-queue engine. Window mode
   splits by edge locality: an intra-region send draws from its (region-
   owned) edge streams inline, while a cross-region send is buffered with
   only the sender-side lie applied (the sender's own stream) and all
   edge-stream draws deferred to the barrier replay, which performs them
   in exact serial order. *)
let do_send t wctx v ~port msg =
  let g = t.graph in
  let edge = Graph.edge_at_port g v port in
  let dst = Graph.neighbor_at_port g v port in
  let dst_port = Graph.port_of_neighbor g dst v in
  (* A crashed node's handlers never run, so this guard is defensive:
     nothing a down node "sends" may enter the network. *)
  if not t.node_up.(v) then ()
  else begin
    let at = match wctx with None -> t.now | Some c -> !(c.now_ref) in
    (match wctx with
    | None -> t.messages_sent <- t.messages_sent + 1
    | Some c -> c.c_sent <- c.c_sent + 1);
    if not t.edge_up.(edge) then begin
      (match wctx with
      | None -> t.messages_dropped_faults <- t.messages_dropped_faults + 1
      | Some c -> c.c_dropped_faults <- c.c_dropped_faults + 1);
      emit t wctx at (Obs_fault_drop { src = v; dst; edge })
    end
    else
      match wctx with
      | Some c when t.edge_cross.(edge) ->
          (* The sender's lie applies inline so the per-node Byzantine
             stream sees draws in the sender's own send order; the lie
             observation and counter wait for the barrier's drop draw
             (they only exist for messages that enter the network). *)
          let msg, lied =
            match t.lie with
            | None -> (msg, false)
            | Some lie -> (
                match lie ~src:v ~dst ~now:at ~rng:t.byz_rngs.(v) msg with
                | None -> (msg, false)
                | Some msg' -> (msg', true))
          in
          witem_add c (W_cross { at; src = v; dst; edge; dst_port; msg; lied })
      | _ -> begin
          let drop_p = Delay_model.drop_probability t.delays in
          let dropped =
            drop_p > 0. && Prng.float t.link_rngs.(edge) 1.0 < drop_p
          in
          if dropped then begin
            (match wctx with
            | None -> t.messages_dropped <- t.messages_dropped + 1
            | Some c -> c.c_dropped <- c.c_dropped + 1);
            emit t wctx at (Obs_drop { src = v; dst; edge })
          end
          else begin
            let delay =
              Delay_model.draw t.delays ~edge ~src:v ~dst ~now:at
                ~rng:t.link_rngs.(edge)
            in
            let b = Delay_model.edge_bounds t.delays edge in
            if delay < b.Delay_model.d_min || delay > b.Delay_model.d_max
            then
              invalid_arg
                (Printf.sprintf
                   "Engine.send: delay %g outside bounds [%g, %g] on edge \
                    %d (%d -> %d)"
                   delay b.Delay_model.d_min b.Delay_model.d_max edge v dst);
            (* The sender's lie applies first — a Byzantine node hands the
               network an already-false value; tampering (below) then acts
               on whatever was handed over, like for any other message. *)
            let msg =
              match t.lie with
              | None -> msg
              | Some lie -> (
                  match lie ~src:v ~dst ~now:at ~rng:t.byz_rngs.(v) msg with
                  | None -> msg
                  | Some msg' ->
                      (match wctx with
                      | None -> t.messages_lied <- t.messages_lied + 1
                      | Some c -> c.c_lied <- c.c_lied + 1);
                      emit t wctx at (Obs_lie { src = v; dst; edge });
                      msg')
            in
            (* Tampering applies after the bounds check: a reorder fault
               adds extra delay *by design* outside the paper's
               uncertainty model. *)
            let delay, msg =
              match t.tamper with
              | None -> (delay, msg)
              | Some tm ->
                  let rng = t.fault_rngs.(edge) in
                  let extra = tm.extra_delay ~edge ~now:at ~rng in
                  let msg =
                    match tm.corrupt ~edge ~now:at ~rng msg with
                    | None -> msg
                    | Some msg' ->
                        (match wctx with
                        | None ->
                            t.messages_corrupted <- t.messages_corrupted + 1
                        | Some c -> c.c_corrupted <- c.c_corrupted + 1);
                        emit t wctx at (Obs_corrupt { src = v; dst; edge });
                        msg'
                  in
                  (delay +. extra, msg)
            in
            emit t wctx at (Obs_send { src = v; dst; edge; delay });
            push_region_event t wctx ~region:t.node_region.(dst)
              ~prio:(at +. delay)
              (Deliver { dst; port = dst_port; edge; msg });
            match t.tamper with
            | Some tm
              when tm.duplicate ~edge ~now:at ~rng:t.fault_rngs.(edge) ->
                (match wctx with
                | None ->
                    t.messages_duplicated <- t.messages_duplicated + 1
                | Some c -> c.c_duplicated <- c.c_duplicated + 1);
                emit t wctx at (Obs_duplicate { src = v; dst; edge });
                let dup_delay =
                  Delay_model.draw t.delays ~edge ~src:v ~dst ~now:at
                    ~rng:t.fault_rngs.(edge)
                in
                push_region_event t wctx ~region:t.node_region.(dst)
                  ~prio:(at +. dup_delay)
                  (Deliver { dst; port = dst_port; edge; msg })
            | _ -> ()
          end
        end
  end

(* The real time node [v] sees: its region's clock inside a window. *)
let[@inline] node_now t v =
  if t.par_active then !(t.regions.(t.node_region.(v)).now_ref) else t.now

let make_api t v =
  let wctx () =
    if t.par_active then Some t.regions.(t.node_region.(v)) else None
  in
  {
    node = v;
    ports = Graph.degree t.graph v;
    hardware = (fun () -> hw_value t v ~now:(node_now t v));
    send = (fun ~port msg -> do_send t (wctx ()) v ~port msg);
    set_timer =
      (fun ~h ~tag ->
        let pool = t.regions.(t.node_region.(v)).pool in
        let slot = pool_alloc pool t.node_timer_head ~node:v ~h ~tag in
        push_timer_event t (wctx ()) ~node:v ~slot ~gen:pool.tp_gen.(slot)
          ~h_target:h ~now:(node_now t v));
    rng = Prng.create ~seed:0 (* replaced in [of_config] *);
  }

let of_config (cfg : 'msg config) =
  let graph = cfg.cfg_graph in
  let clocks = cfg.cfg_clocks in
  let n = Graph.n graph in
  let m = Graph.m graph in
  if Array.length clocks <> n then
    invalid_arg "Engine.create: one hardware clock per node required";
  Array.iter
    (fun c ->
      if Hardware_clock.start_time c > cfg.cfg_t0 then
        invalid_arg "Engine.create: clock starts after t0")
    clocks;
  (* Resolve the effective region count. Parallel execution needs a
     positive lookahead (every cross-region edge's d_min bounds how soon
     one region can affect another) and a hook-free dispatch path; anything
     else degrades to the serial single-region engine. *)
  let requested = min cfg.cfg_regions (max 1 n) in
  let partition r = Array.init n (fun v -> v * r / n) in
  let cross_of node_region =
    Array.init m (fun e ->
        let u, v = Graph.edge_endpoints graph e in
        node_region.(u) <> node_region.(v))
  in
  let lookahead_of node_region =
    let cross = cross_of node_region in
    let l = ref infinity in
    for e = 0 to m - 1 do
      if cross.(e) then begin
        let b = Delay_model.edge_bounds cfg.cfg_delays e in
        if b.Delay_model.d_min < !l then l := b.Delay_model.d_min
      end
    done;
    !l
  in
  let nregions =
    if requested <= 1 then 1
    else if cfg.cfg_hook <> None then 1
    else if lookahead_of (partition requested) <= 0. then 1
    else requested
  in
  let node_region = partition nregions in
  let edge_cross = cross_of node_region in
  let lookahead = if nregions > 1 then lookahead_of node_region else infinity in
  let node_rngs = Prng.split_n cfg.cfg_rng n in
  let link_rngs = Prng.split_n cfg.cfg_rng m in
  (* Must come after node and link streams: see the [fault_rngs] comment. *)
  let fault_rngs = Prng.split_n cfg.cfg_rng m in
  (* And these after the fault streams: see the [byz_rngs] comment. *)
  let byz_rngs = Prng.split_n cfg.cfg_rng n in
  let t =
    {
      graph;
      clocks;
      delays = cfg.cfg_delays;
      sched_kind = cfg.cfg_scheduler;
      nregions;
      node_region;
      edge_cross;
      lookahead;
      regions =
        Array.init nregions (fun rid ->
            let c = rctx_create ~rid ~kind:cfg.cfg_scheduler in
            c.now_ref := cfg.cfg_t0;
            c);
      ctrl_q = Scheduler.make cfg.cfg_scheduler;
      next_seq = 0;
      handlers = Array.init n cfg.cfg_make_node;
      make_node = cfg.cfg_make_node;
      apis = [||];
      node_timer_head = Array.make n (-1);
      link_rngs;
      fault_rngs;
      byz_rngs;
      node_up = Array.make n true;
      edge_up = Array.make m true;
      seg_t = Array.make n 0.;
      seg_v = Array.make n 0.;
      seg_r = Array.make n 1.;
      seg_until = Array.make n neg_infinity;
      seg_epoch = Array.make n (-1);
      tamper = cfg.cfg_tamper;
      lie = cfg.cfg_lie;
      now = cfg.cfg_t0;
      started = false;
      par_active = false;
      events_processed = 0;
      messages_sent = 0;
      messages_delivered = 0;
      messages_dropped = 0;
      messages_dropped_faults = 0;
      messages_duplicated = 0;
      messages_corrupted = 0;
      messages_lied = 0;
      observers = Array.of_list cfg.cfg_observers;
      dispatch_hook = cfg.cfg_hook;
      hook_every = cfg.cfg_hook_every;
      hook_left = cfg.cfg_hook_every;
      hook_armed = false;
      timers_fired = 0;
      controls_run = 0;
      heap_high_water = 0;
      stop_requested = false;
    }
  in
  t.apis <-
    Array.init n (fun v -> { (make_api t v) with rng = node_rngs.(v) });
  t

let create ~graph ~clocks ~delays ~rng ~make_node ~t0 =
  of_config (config ~graph ~clocks ~delays ~rng ~make_node ~t0 ())

let start t =
  if not t.started then begin
    t.started <- true;
    Array.iteri (fun v h -> h.on_init t.apis.(v)) t.handlers
  end

(* Bracket an algorithm/control callback with the profiling hook (when
   installed). The split before/after shape — rather than handing the hook a
   thunk — keeps the instrumented path allocation-free, and the engine-side
   sampling gate keeps the common unsampled dispatch to one countdown
   decrement instead of two indirect calls. Hooks only exist on the serial
   path ([of_config] degrades a hooked engine to one region). *)
let[@inline] hook_before t kind =
  match t.dispatch_hook with
  | None -> ()
  | Some h ->
      let left = t.hook_left - 1 in
      if left = 0 then begin
        t.hook_left <- t.hook_every;
        t.hook_armed <- true;
        h.before kind
      end
      else t.hook_left <- left

let[@inline] hook_after t kind =
  match t.dispatch_hook with
  | None -> ()
  | Some h ->
      if t.hook_armed then begin
        t.hook_armed <- false;
        h.after kind
      end

let dispatch t wctx event =
  (match wctx with
  | None -> t.events_processed <- t.events_processed + 1
  | Some c -> c.c_events <- c.c_events + 1);
  let now = match wctx with None -> t.now | Some c -> !(c.now_ref) in
  match event with
  | Deliver { dst; port; edge; msg } ->
      (* Messages in flight when a partition starts or the receiver crashes
         are lost at delivery time. *)
      if (not t.node_up.(dst)) || not t.edge_up.(edge) then begin
        (match wctx with
        | None -> t.messages_dropped_faults <- t.messages_dropped_faults + 1
        | Some c -> c.c_dropped_faults <- c.c_dropped_faults + 1);
        emit t wctx now
          (Obs_fault_drop
             { src = Graph.neighbor_at_port t.graph dst port; dst; edge })
      end
      else begin
        (match wctx with
        | None -> t.messages_delivered <- t.messages_delivered + 1
        | Some c -> c.c_delivered <- c.c_delivered + 1);
        emit t wctx now (Obs_deliver { dst; port });
        hook_before t Dispatch_deliver;
        t.handlers.(dst).on_message t.apis.(dst) ~port msg;
        hook_after t Dispatch_deliver
      end
  | Timer_fire { node; slot; gen } ->
      let pool = t.regions.(t.node_region.(node)).pool in
      if pool_live pool ~slot ~gen then begin
        let h_target = pool.tp_h.(slot) in
        let h_now = hw_value t node ~now in
        if h_now +. 1e-9 >= h_target then begin
          let tag = pool.tp_tag.(slot) in
          pool_free pool t.node_timer_head slot;
          (match wctx with
          | None -> t.timers_fired <- t.timers_fired + 1
          | Some c -> c.c_timers <- c.c_timers + 1);
          emit t wctx now (Obs_timer { node; tag });
          hook_before t Dispatch_timer;
          t.handlers.(node).on_timer t.apis.(node) ~tag;
          hook_after t Dispatch_timer
        end
        else
          (* The clock slowed after this entry was pushed; re-aim. *)
          push_timer_event t wctx ~node ~slot ~gen ~h_target ~now
      end
      (* else: rescheduled or already fired under an old generation *)
  | Control f ->
      t.controls_run <- t.controls_run + 1;
      hook_before t Dispatch_control;
      f ();
      hook_after t Dispatch_control

(* ---------------- serial execution (one region) ---------------- *)

let serial_q t = t.regions.(0).q

let[@inline] note_heap_depth t sz =
  if sz > t.heap_high_water then t.heap_high_water <- sz

let run_until_serial t horizon =
  let q = serial_q t in
  let continue = ref true in
  while !continue && not t.stop_requested do
    note_heap_depth t (q.Scheduler.size ());
    let time = q.Scheduler.min_prio () in
    if q.Scheduler.size () > 0 && time <= horizon then begin
      let event = q.Scheduler.pop_min () in
      t.now <- Float.max t.now time;
      dispatch t None event
    end
    else continue := false
  done;
  (* A stopped run keeps [now] at the last processed event so the caller
     can see where execution was cut short. *)
  if not t.stop_requested then t.now <- Float.max t.now horizon

(* ------------------------------------------------------------------ *)
(* Conservative region-parallel execution.                              *)
(*                                                                      *)
(* The topology is partitioned into contiguous node regions. Because a   *)
(* cross-region message takes at least [lookahead = min d_min] to        *)
(* arrive, all events in a window [W, W + lookahead) are causally        *)
(* independent across regions (Chandy–Misra: the per-edge d_min IS the   *)
(* lookahead), so each region's queue can drain the window on its own    *)
(* domain. Windows also never span a pending control event: controls     *)
(* (faults, probes) mutate or read global state and run between          *)
(* windows, on the main domain, exactly at their scheduled time.         *)
(*                                                                      *)
(* Byte-identity with the serial engine is by construction:             *)
(* - every push consumes exactly one final sequence number, assigned in  *)
(*   the order the serial engine would have pushed (the barrier merges   *)
(*   the regions' pop logs back into serial dispatch order and replays   *)
(*   buffered effects in that order);                                    *)
(* - per-stream RNG draw order is preserved: node and intra-region edge  *)
(*   streams draw inline (each is owned by one region), cross-region     *)
(*   edge streams draw at the barrier replay in serial send order;       *)
(* - observations buffer per region and flush at the barrier in serial   *)
(*   dispatch order, so sinks see the exact serial stream.               *)
(* The one divergence: a Byzantine lie that draws randomness combined    *)
(* with message loss on a cross-region edge would need the drop draw     *)
(* before the lie draw; callers gate that combination to the serial      *)
(* engine (see Runner).                                                  *)
(* ------------------------------------------------------------------ *)

let run_region_window t c ~wend =
  c.cur_wend <- wend;
  Domain.DLS.set dls_region_now (Some c.now_ref);
  let q = c.q in
  while q.Scheduler.min_prio () < wend do
    let prio = q.Scheduler.min_prio () in
    let seq = q.Scheduler.min_seq () in
    let ev = q.Scheduler.pop_min () in
    if prio > !(c.now_ref) then c.now_ref := prio;
    pop_log_add c prio seq;
    dispatch t (Some c) ev
  done;
  Domain.DLS.set dls_region_now None

let fold_region_counters t =
  Array.iter
    (fun c ->
      t.events_processed <- t.events_processed + c.c_events;
      t.messages_sent <- t.messages_sent + c.c_sent;
      t.messages_delivered <- t.messages_delivered + c.c_delivered;
      t.messages_dropped <- t.messages_dropped + c.c_dropped;
      t.messages_dropped_faults <-
        t.messages_dropped_faults + c.c_dropped_faults;
      t.messages_duplicated <- t.messages_duplicated + c.c_duplicated;
      t.messages_corrupted <- t.messages_corrupted + c.c_corrupted;
      t.messages_lied <- t.messages_lied + c.c_lied;
      t.timers_fired <- t.timers_fired + c.c_timers;
      c.c_events <- 0;
      c.c_sent <- 0;
      c.c_delivered <- 0;
      c.c_dropped <- 0;
      c.c_dropped_faults <- 0;
      c.c_duplicated <- 0;
      c.c_corrupted <- 0;
      c.c_lied <- 0;
      c.c_timers <- 0)
    t.regions

(* Replay one buffered cross-region send at the barrier: the deferred
   edge-stream draws happen here, in serial send order, and produce the
   exact observation sequence and queue pushes of a serial send. *)
let replay_cross t ~at ~src ~dst ~edge ~dst_port ~msg ~lied =
  let drop_p = Delay_model.drop_probability t.delays in
  let dropped = drop_p > 0. && Prng.float t.link_rngs.(edge) 1.0 < drop_p in
  if dropped then begin
    t.messages_dropped <- t.messages_dropped + 1;
    observe_at t at (Obs_drop { src; dst; edge })
  end
  else begin
    let delay =
      Delay_model.draw t.delays ~edge ~src ~dst ~now:at
        ~rng:t.link_rngs.(edge)
    in
    let b = Delay_model.edge_bounds t.delays edge in
    if delay < b.Delay_model.d_min || delay > b.Delay_model.d_max then
      invalid_arg
        (Printf.sprintf
           "Engine.send: delay %g outside bounds [%g, %g] on edge %d (%d -> \
            %d)"
           delay b.Delay_model.d_min b.Delay_model.d_max edge src dst);
    if lied then begin
      t.messages_lied <- t.messages_lied + 1;
      observe_at t at (Obs_lie { src; dst; edge })
    end;
    let delay, msg =
      match t.tamper with
      | None -> (delay, msg)
      | Some tm ->
          let rng = t.fault_rngs.(edge) in
          let extra = tm.extra_delay ~edge ~now:at ~rng in
          let msg =
            match tm.corrupt ~edge ~now:at ~rng msg with
            | None -> msg
            | Some msg' ->
                t.messages_corrupted <- t.messages_corrupted + 1;
                observe_at t at (Obs_corrupt { src; dst; edge });
                msg'
          in
          (delay +. extra, msg)
    in
    observe_at t at (Obs_send { src; dst; edge; delay });
    Scheduler.(t.regions.(t.node_region.(dst)).q.push) ~prio:(at +. delay)
      ~seq:(fresh_seq t)
      (Deliver { dst; port = dst_port; edge; msg });
    match t.tamper with
    | Some tm when tm.duplicate ~edge ~now:at ~rng:t.fault_rngs.(edge) ->
        t.messages_duplicated <- t.messages_duplicated + 1;
        observe_at t at (Obs_duplicate { src; dst; edge });
        let dup_delay =
          Delay_model.draw t.delays ~edge ~src ~dst ~now:at
            ~rng:t.fault_rngs.(edge)
        in
        Scheduler.(t.regions.(t.node_region.(dst)).q.push)
          ~prio:(at +. dup_delay) ~seq:(fresh_seq t)
          (Deliver { dst; port = dst_port; edge; msg })
    | _ -> ()
  end

(* Merge the window back into serial order: a k-way merge of the regions'
   pop logs keyed by (prio, final seq). Lane sequences resolve through the
   mapping the merge itself builds — an in-window event's push is always
   replayed (and finally sequenced) before its pop can reach a log head,
   because the push was recorded by an earlier pop of the same region. *)
let merge_window t =
  let r = t.nregions in
  let idx = Array.make r 0 in
  let final_of c seq =
    if seq < lane_base then seq else c.final_seq.((seq - lane_base) / r)
  in
  let replay_item c = function
    | W_nop -> ()
    | W_obs { at; obs } -> observe_at t at obs
    | W_imm k -> c.final_seq.(k) <- fresh_seq t
    | W_push { prio; ev } ->
        let region =
          match ev with
          | Deliver { dst; _ } -> t.node_region.(dst)
          | Timer_fire { node; _ } -> t.node_region.(node)
          | Control _ -> 0
        in
        Scheduler.(t.regions.(region).q.push) ~prio ~seq:(fresh_seq t) ev
    | W_cross { at; src; dst; edge; dst_port; msg; lied } ->
        replay_cross t ~at ~src ~dst ~edge ~dst_port ~msg ~lied
  in
  let exception Done in
  (try
     while true do
       let best = ref (-1) and bp = ref infinity and bs = ref max_int in
       for i = 0 to r - 1 do
         let c = t.regions.(i) in
         if idx.(i) < c.pop_len then begin
           let p = c.pop_prio.(idx.(i)) in
           let s = final_of c c.pop_seq.(idx.(i)) in
           if p < !bp || (p = !bp && s < !bs) then begin
             best := i;
             bp := p;
             bs := s
           end
         end
       done;
       if !best < 0 then raise Done;
       let c = t.regions.(!best) in
       let j = idx.(!best) in
       idx.(!best) <- j + 1;
       let it_start = c.pop_item.(j) in
       let it_end =
         if j + 1 < c.pop_len then c.pop_item.(j + 1) else c.items_len
       in
       for k = it_start to it_end - 1 do
         replay_item c c.items.(k)
       done
     done
   with Done -> ());
  Array.iter
    (fun c ->
      Array.fill c.items 0 c.items_len W_nop;
      c.items_len <- 0;
      c.pop_len <- 0;
      c.lane_count <- 0)
    t.regions

(* Minimum (prio, seq) over every queue; returns the queue holding it. *)
let global_min t =
  let best = ref t.ctrl_q in
  let bp = ref (t.ctrl_q.Scheduler.min_prio ()) in
  let bs = ref (t.ctrl_q.Scheduler.min_seq ()) in
  Array.iter
    (fun c ->
      let p = c.q.Scheduler.min_prio () in
      if p < !bp || (p = !bp && c.q.Scheduler.min_seq () < !bs) then begin
        best := c.q;
        bp := p;
        bs := c.q.Scheduler.min_seq ()
      end)
    t.regions;
  (!bp, !best)

let total_pending t =
  Array.fold_left
    (fun acc c -> acc + c.q.Scheduler.size ())
    (t.ctrl_q.Scheduler.size ())
    t.regions

(* Window synchronisation: persistent worker domains for the duration of
   one [run_until], released by a generation barrier. *)
type sync = {
  mutex : Mutex.t;
  work : Condition.t;
  done_ : Condition.t;
  mutable gen : int;
  mutable wend : float;
  mutable dones : int;
  mutable quit : bool;
}

let run_until_parallel t horizon =
  let r = t.nregions in
  let s =
    {
      mutex = Mutex.create ();
      work = Condition.create ();
      done_ = Condition.create ();
      gen = 0;
      wend = nan;
      dones = 0;
      quit = false;
    }
  in
  let worker rid =
    let my_gen = ref 0 in
    let running = ref true in
    while !running do
      Mutex.lock s.mutex;
      while (not s.quit) && s.gen = !my_gen do
        Condition.wait s.work s.mutex
      done;
      let quit = s.quit in
      let wend = s.wend in
      my_gen := s.gen;
      Mutex.unlock s.mutex;
      if quit then running := false
      else begin
        run_region_window t t.regions.(rid) ~wend;
        Mutex.lock s.mutex;
        s.dones <- s.dones + 1;
        Condition.broadcast s.done_;
        Mutex.unlock s.mutex
      end
    done
  in
  let domains =
    Array.init (r - 1) (fun i -> Domain.spawn (fun () -> worker (i + 1)))
  in
  let release_window wend =
    t.par_active <- true;
    Mutex.lock s.mutex;
    s.wend <- wend;
    s.gen <- s.gen + 1;
    s.dones <- 0;
    Condition.broadcast s.work;
    Mutex.unlock s.mutex;
    run_region_window t t.regions.(0) ~wend;
    Mutex.lock s.mutex;
    while s.dones < r - 1 do
      Condition.wait s.done_ s.mutex
    done;
    Mutex.unlock s.mutex;
    t.par_active <- false
  in
  let continue = ref true in
  while !continue && not t.stop_requested do
    let next_p, _ = global_min t in
    if total_pending t = 0 || next_p > horizon then continue := false
    else begin
      note_heap_depth t (total_pending t);
      let wend =
        Float.min
          (Float.min (next_p +. t.lookahead) (t.ctrl_q.Scheduler.min_prio ()))
          horizon
      in
      if wend > next_p then release_window wend;
      fold_region_counters t;
      merge_window t;
      Array.iter
        (fun c -> if !(c.now_ref) > t.now then t.now <- !(c.now_ref))
        t.regions;
      (* Boundary pass: events and controls at exactly the window end run
         serially in global (prio, seq) order — this is where faults fire,
         probes sample a settled global state, and same-time cascades
         stay exact. *)
      let boundary = ref true in
      while !boundary && not t.stop_requested do
        let p, q = global_min t in
        if total_pending t > 0 && p <= wend then begin
          note_heap_depth t (total_pending t);
          let ev = q.Scheduler.pop_min () in
          t.now <- Float.max t.now p;
          dispatch t None ev
        end
        else boundary := false
      done
    end
  done;
  Mutex.lock s.mutex;
  s.quit <- true;
  Condition.broadcast s.work;
  Mutex.unlock s.mutex;
  Array.iter Domain.join domains;
  if not t.stop_requested then t.now <- Float.max t.now horizon

let run_until t horizon =
  start t;
  if t.nregions = 1 then run_until_serial t horizon
  else begin
    let next_p, _ = global_min t in
    if total_pending t = 0 || next_p > horizon then begin
      if not t.stop_requested then t.now <- Float.max t.now horizon
    end
    else run_until_parallel t horizon
  end

let step t =
  start t;
  note_heap_depth t (total_pending t);
  if total_pending t = 0 then false
  else begin
    let p, q = global_min t in
    let event = q.Scheduler.pop_min () in
    assert (p +. 1e-9 >= t.now);
    t.now <- Float.max t.now p;
    dispatch t None event;
    true
  end

let schedule_control t ~at f =
  let q = if t.nregions > 1 then t.ctrl_q else serial_q t in
  q.Scheduler.push ~prio:(Float.max at t.now) ~seq:(fresh_seq t) (Control f)

let set_node_rate t ~node ~rate =
  let clock = t.clocks.(node) in
  Hardware_clock.set_rate clock ~now:t.now ~rate;
  (* A rate replaced at an existing breakpoint leaves the epoch unchanged;
     drop the cached segment explicitly. *)
  t.seg_epoch.(node) <- -1;
  observe t (Obs_rate_change { node; rate });
  (* Re-key every pending timer so stale queue entries become no-ops and
     fresh entries reflect the new rate. Slots walk in insertion order. *)
  let pool = t.regions.(t.node_region.(node)).pool in
  let slot = ref t.node_timer_head.(node) in
  while !slot >= 0 do
    let s = !slot in
    pool.tp_gen.(s) <- pool.tp_gen.(s) + 1;
    push_timer_event t None ~node ~slot:s ~gen:pool.tp_gen.(s)
      ~h_target:pool.tp_h.(s) ~now:t.now;
    slot := pool.tp_next.(s)
  done

let crash_node t ~node =
  if t.node_up.(node) then begin
    t.node_up.(node) <- false;
    (* Freeing the slots turns every pending queue entry for this node into
       a no-op, exactly like the re-keying in [set_node_rate]. *)
    let pool = t.regions.(t.node_region.(node)).pool in
    while t.node_timer_head.(node) >= 0 do
      pool_free pool t.node_timer_head t.node_timer_head.(node)
    done;
    observe t (Obs_node_down { node })
  end

let recover_node t ~node ~wipe =
  if not t.node_up.(node) then begin
    t.node_up.(node) <- true;
    observe t (Obs_node_up { node; wipe });
    if wipe then t.handlers.(node) <- t.make_node node;
    t.handlers.(node).on_init t.apis.(node)
  end

let set_edge_up t ~edge ~up =
  if t.edge_up.(edge) <> up then begin
    t.edge_up.(edge) <- up;
    observe t (if up then Obs_edge_up { edge } else Obs_edge_down { edge })
  end

let request_stop t = t.stop_requested <- true
let stop_requested t = t.stop_requested
let node_is_up t node = t.node_up.(node)
let edge_is_up t edge = t.edge_up.(edge)
let add_observer t f = t.observers <- Array.append t.observers [| f |]
let clear_observer t = t.observers <- [||]

let dispatch_count t = function
  | Dispatch_deliver -> t.messages_delivered
  | Dispatch_timer -> t.timers_fired
  | Dispatch_control -> t.controls_run

let hardware_clock t v = t.clocks.(v)
let graph t = t.graph
let regions t = t.nregions
let scheduler_kind t = t.sched_kind
let lookahead t = t.lookahead
let node_region t v = t.node_region.(v)
let events_processed t = t.events_processed
let messages_sent t = t.messages_sent
let messages_delivered t = t.messages_delivered
let messages_dropped t = t.messages_dropped
let messages_dropped_faults t = t.messages_dropped_faults
let messages_duplicated t = t.messages_duplicated
let messages_corrupted t = t.messages_corrupted
let messages_lied t = t.messages_lied
let pending_events t = total_pending t
let heap_high_water t = t.heap_high_water

type 'msg pending =
  | Pending_deliver of { at : float; dst : int; port : int; edge : int; msg : 'msg }
  | Pending_timer of { at : float; node : int; h_target : float; tag : int }
  | Pending_control of { at : float }

let pending_snapshot t =
  (* Each queue renders in exact pop order via [Scheduler.sorted], with the
     stale-timer filter pushed into the scheduler's [keep] hook: queue
     entries carrying a dead (slot, gen) are the no-op ghosts left behind by
     rescheduling and are not part of the observable state. The per-queue
     lists then merge by (prio, seq) — the same order a global pop loop
     would dispatch. *)
  let keep = function
    | Timer_fire { node; slot; gen } ->
        pool_live t.regions.(t.node_region.(node)).pool ~slot ~gen
    | Deliver _ | Control _ -> true
  in
  let lists =
    t.ctrl_q.Scheduler.sorted ~keep
    :: Array.to_list (Array.map (fun c -> c.q.Scheduler.sorted ~keep) t.regions)
  in
  let merged =
    List.sort
      (fun (p1, s1, _) (p2, s2, _) ->
        let c = Float.compare p1 p2 in
        if c <> 0 then c else Int.compare s1 s2)
      (List.concat lists)
  in
  List.map
    (fun (at, _, ev) ->
      match ev with
      | Deliver { dst; port; edge; msg } ->
          Pending_deliver { at; dst; port; edge; msg }
      | Timer_fire { node; slot; gen = _ } ->
          let pool = t.regions.(t.node_region.(node)).pool in
          Pending_timer
            { at; node; h_target = pool.tp_h.(slot); tag = pool.tp_tag.(slot) }
      | Control _ -> Pending_control { at })
    merged
