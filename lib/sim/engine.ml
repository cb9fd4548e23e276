module Prng = Gcs_util.Prng
module Scheduler = Gcs_util.Scheduler
module Graph = Gcs_graph.Graph
module Hardware_clock = Gcs_clock.Hardware_clock
module Reading = Gcs_clock.Reading

type 'msg api = {
  node : int;
  ports : int;
  clock : Reading.t;
  send : port:int -> 'msg -> unit;
  set_timer : after:float -> tag:int -> unit;
  rng : Prng.t;
}

type 'msg handlers = {
  on_init : 'msg api -> unit;
  on_message : 'msg api -> port:int -> 'msg -> unit;
  on_timer : 'msg api -> tag:int -> unit;
}

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
(* holding hardware deadlines, tags, owners, and the sequence number of *)
(* each slot's live queue entry in parallel columns, with per-node      *)
(* intrusive doubly-linked slot lists so re-keying and crash            *)
(* cancellation walk only the node's own slots.                         *)
(* ------------------------------------------------------------------ *)

type timer_pool = {
  mutable tp_h : float array; (* hardware deadline *)
  mutable tp_tag : int array;
  mutable tp_owner : int array; (* node id; -1 = free *)
  mutable tp_seq : int array; (* sequence of the live queue entry; -1 = none *)
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
    tp_seq = [||];
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
  p.tp_seq <- extend p.tp_seq (-1);
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

(* [heads.(node)] is the first slot of the node's pending-timer list. The
   caller writes the slot's deadline into [tp_h]: a float argument would
   be boxed. *)
let pool_alloc p heads ~node ~tag =
  if p.tp_free_top = 0 then pool_grow p;
  p.tp_free_top <- p.tp_free_top - 1;
  let s = p.tp_free.(p.tp_free_top) in
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
  p.tp_seq.(s) <- -1;
  p.tp_free.(p.tp_free_top) <- s;
  p.tp_free_top <- p.tp_free_top + 1

(* Whether the queue entry [(seq, slot)] is its slot's live entry. Every
   queued entry has its own sequence number, so re-keying a timer (a new
   entry) or freeing its slot leaves every older entry dead, and no queue
   traversal is ever needed. *)
let[@inline] pool_live p ~slot ~seq = p.tp_seq.(slot) = seq

(* ------------------------------------------------------------------ *)
(* Event queues: a heap ordering int handles, plus the columns of the   *)
(* events those handles name, so a send, a timer arm or a control       *)
(* allocates no event block and no sift writes a pointer.               *)
(* - A timer's handle is [lnot slot] (negative) in the region's timer   *)
(*   pool, which the queue owns: a timer needs no other column.         *)
(* - Deliveries and controls are non-negative handles into the queue's  *)
(*   event pool, four words per handle: [ev_head] packs the kind into   *)
(*   its low bit, over a delivery's receiver or a control's index into  *)
(*   the closure side table; [ev_x] and [ev_y] hold a delivery's port   *)
(*   and edge; [ev_msg] its message.                                    *)
(* Free handles chain through [ev_x]. A free message slot holds the     *)
(* filler (the first message the queue saw) and a free closure slot a   *)
(* no-op, so a released event keeps nothing else reachable.             *)
(* ------------------------------------------------------------------ *)

let kind_deliver = 0
let kind_control = 1

type 'msg queue = {
  sched : Scheduler.t; (* orders the handles by (time, seq) *)
  timers : timer_pool; (* the region's timer slots *)
  mutable ev_head : int array;
  mutable ev_x : int array;
  mutable ev_y : int array;
  mutable ev_msg : 'msg array; (* [||] until the first delivery *)
  mutable ev_fill : 'msg option; (* filler of free message slots *)
  mutable ev_free : int; (* head of the free-handle chain; -1 = none *)
  mutable ctl_fn : (unit -> unit) array; (* control closures *)
  mutable ctl_next : int array; (* free chain of the closure table *)
  mutable ctl_free : int;
}

let queue_create () =
  {
    sched = Scheduler.create ();
    timers = pool_create ();
    ev_head = [||];
    ev_x = [||];
    ev_y = [||];
    ev_msg = [||];
    ev_fill = None;
    ev_free = -1;
    ctl_fn = [||];
    ctl_next = [||];
    ctl_free = -1;
  }

let no_control () = ()

let queue_grow qu =
  let cap = Array.length qu.ev_head in
  let ncap = if cap = 0 then 16 else 2 * cap in
  let extend a =
    let na = Array.make ncap 0 in
    Array.blit a 0 na 0 cap;
    na
  in
  qu.ev_head <- extend qu.ev_head;
  qu.ev_x <- extend qu.ev_x;
  qu.ev_y <- extend qu.ev_y;
  (match qu.ev_fill with
  | None -> ()
  | Some fill ->
      let nm = Array.make ncap fill in
      Array.blit qu.ev_msg 0 nm 0 cap;
      qu.ev_msg <- nm);
  (* Chain the fresh handles so that low ones are handed out first. *)
  for h = ncap - 1 downto cap do
    qu.ev_x.(h) <- qu.ev_free;
    qu.ev_free <- h
  done

let[@inline] alloc qu =
  if qu.ev_free < 0 then queue_grow qu;
  let h = qu.ev_free in
  qu.ev_free <- qu.ev_x.(h);
  h

let[@inline] release qu h =
  qu.ev_x.(h) <- qu.ev_free;
  qu.ev_free <- h

let alloc_deliver qu ~dst ~port ~edge msg =
  let h = alloc qu in
  (match qu.ev_fill with
  | Some _ -> ()
  | None ->
      qu.ev_fill <- Some msg;
      qu.ev_msg <- Array.make (Array.length qu.ev_head) msg);
  qu.ev_head.(h) <- (dst lsl 1) lor kind_deliver;
  qu.ev_x.(h) <- port;
  qu.ev_y.(h) <- edge;
  qu.ev_msg.(h) <- msg;
  h

let alloc_control qu f =
  if qu.ctl_free < 0 then begin
    let cap = Array.length qu.ctl_fn in
    let ncap = if cap = 0 then 4 else 2 * cap in
    let nf = Array.make ncap no_control in
    let nn = Array.make ncap (-1) in
    Array.blit qu.ctl_fn 0 nf 0 cap;
    Array.blit qu.ctl_next 0 nn 0 cap;
    qu.ctl_fn <- nf;
    qu.ctl_next <- nn;
    for i = ncap - 1 downto cap do
      nn.(i) <- qu.ctl_free;
      qu.ctl_free <- i
    done
  end;
  let i = qu.ctl_free in
  qu.ctl_free <- qu.ctl_next.(i);
  qu.ctl_fn.(i) <- f;
  let h = alloc qu in
  qu.ev_head.(h) <- (i lsl 1) lor kind_control;
  h

(* Release a control's side-table entry and return its closure. *)
let take_control qu i =
  let f = qu.ctl_fn.(i) in
  qu.ctl_fn.(i) <- no_control;
  qu.ctl_next.(i) <- qu.ctl_free;
  qu.ctl_free <- i;
  f

(* ------------------------------------------------------------------ *)
(* Region record: one event queue, clock position, window buffers and   *)
(* counters per partition region. A serial engine is exactly one region *)
(* that never runs a window.                                            *)
(* ------------------------------------------------------------------ *)

(* The sender's lie as [transmit] sees it: still to be asked, or already
   asked by a window (see [send]), which recorded whether it rewrote the
   message. *)
type lie_state = Lie_unasked | Lie_rewrote | Lie_kept

(* Buffered effects of one window dispatch, replayed in serial order at
   the barrier (see "Conservative region-parallel execution" below). *)
type 'msg witem =
  | W_nop
  | W_obs of { at : float; obs : observation }
  | W_imm of int (* lane index of a push already made into the region queue *)
  | W_push of { prio : float; h : int }
      (* arrival beyond the window: a handle of the region's queue, queued
         (and, for a timer, recorded as its slot's live entry) at the
         barrier *)
  | W_cross of {
      at : float;
      src : int;
      dst : int;
      edge : int;
      dst_port : int;
      msg : 'msg;
      lie : lie_state;
    }

(* Floats cross a call unboxed only inside a flat record (see DESIGN.md),
   so each region keeps its own: windows run regions on their own
   domains, and each domain writes only its region's records. *)
type 'msg rctx = {
  rid : int;
  q : 'msg queue; (* the region's events and timer slots *)
  clock : Reading.t;
      (* the region's time inside a window, and the reading of the node
         whose handler runs (its [api.clock]) *)
  head : Scheduler.key; (* priority of the queue head being dispatched *)
  key : Scheduler.key; (* priority of the next push *)
  draw : Delay_model.slot; (* time and delay of the message on the wire *)
  mutable windowed : bool; (* a window is executing on this region *)
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
  (* Lifetime counters; the engine's totals are their sums over regions.
     A region's dispatches, and the sends of its nodes, count here; the
     control queue's dispatches count in region 0. *)
  mutable events : int;
  mutable sent : int;
  mutable delivered : int;
  mutable dropped : int;
  mutable dropped_faults : int;
  mutable duplicated : int;
  mutable corrupted : int;
  mutable lied : int;
  mutable timers_fired : int;
  mutable controls_run : int;
}

let rctx_create ~rid ~t0 =
  {
    rid;
    q = queue_create ();
    clock = { Reading.now = t0; hw = 0.; logical = 0. };
    head = Scheduler.key ();
    key = Scheduler.key ();
    draw = Delay_model.slot ();
    windowed = false;
    cur_wend = infinity;
    pop_prio = [||];
    pop_seq = [||];
    pop_item = [||];
    pop_len = 0;
    items = [||];
    items_len = 0;
    lane_count = 0;
    final_seq = [||];
    events = 0;
    sent = 0;
    delivered = 0;
    dropped = 0;
    dropped_faults = 0;
    duplicated = 0;
    corrupted = 0;
    lied = 0;
    timers_fired = 0;
    controls_run = 0;
  }

(* Engine time, flat so that the store on every dispatch is unboxed. *)
type instant = { mutable at : float }

type 'msg t = {
  graph : Graph.t;
  clocks : Hardware_clock.t array;
  delays : Delay_model.t;
  nregions : int; (* effective region count (1 = serial) *)
  node_region : int array;
  edge_cross : bool array;
  lookahead : float; (* min d_min over cross-region edges *)
  regions : 'msg rctx array;
  ctrl_q : 'msg queue; (* separate only when nregions > 1 *)
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
  rev_port : int array array; (* [Graph.reverse_ports] *)
  mutable tamper : 'msg tamper option;
  mutable lie : 'msg lie option;
  time : instant; (* engine time: the last processed event, or t0 *)
  mutable started : bool;
  mutable observers : (float -> observation -> unit) array;
  mutable dispatch_hook : dispatch_hook option;
  mutable hook_every : int;
  mutable hook_left : int;
  mutable hook_armed : bool;
  mutable heap_high_water : int;
  mutable stop_requested : bool;
}

(* Lane sequence numbers: in-window pushes carry provisional sequence
   numbers above this base (strictly greater than any final sequence the
   global counter will ever hand out), distinct per region by residue.
   They exist only within one window — the barrier maps each to the final
   sequence the serial engine would have assigned. *)
let lane_base = max_int / 2

(* The region clock of the domain currently executing a window, so [now]
   reads the region's time while a window runs. *)
let dls_region_clock : Reading.t option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let now t =
  if t.nregions > 1 then
    match Domain.DLS.get dls_region_clock with
    | Some r -> r.Reading.now
    | None -> t.time.at
  else t.time.at

(* The real time region [c]'s nodes see: its own clock inside a window. *)
let[@inline] region_now t c =
  if c.windowed then c.clock.Reading.now else t.time.at

(* ---------------- declarative construction ---------------- *)

type 'msg config = {
  cfg_graph : Graph.t;
  cfg_clocks : Hardware_clock.t array;
  cfg_delays : Delay_model.t;
  cfg_rng : Prng.t;
  cfg_make_node : int -> 'msg handlers;
  cfg_t0 : float;
  cfg_regions : int;
  cfg_observers : (float -> observation -> unit) list;
  cfg_hook : dispatch_hook option;
  cfg_hook_every : int;
  cfg_tamper : 'msg tamper option;
  cfg_lie : 'msg lie option;
}

let config ?(regions = 1) ?(observers = []) ?hook ?(hook_every = 1) ?tamper
    ?lie ~graph ~clocks ~delays ~rng ~make_node ~t0 () =
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
    cfg_regions = regions;
    cfg_observers = observers;
    cfg_hook = hook;
    cfg_hook_every = hook_every;
    cfg_tamper = tamper;
    cfg_lie = lie;
  }

let observe_at t at obs =
  let fs = t.observers in
  for i = 0 to Array.length fs - 1 do
    fs.(i) at obs
  done

(* Whether anything observes the run. Every observation is built behind
   this test, so an unobserved run allocates none. *)
let[@inline] observed t = Array.length t.observers > 0

let observe t obs = observe_at t t.time.at obs

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

(* Log the pop just taken from region [c]'s queue: its priority is still
   in [c.head]. *)
let pop_log_add c seq =
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
  c.pop_prio.(c.pop_len) <- c.head.prio;
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

(* Report [obs] at time [at]; a window buffers it for the barrier. Call
   it under [observed t], which keeps [obs] unbuilt when nothing
   observes. *)
let[@inline] emit t c at obs =
  if not c.windowed then observe_at t at obs
  else witem_add c (W_obs { at; obs })

(* Queue handle [h], already filled in [qu]'s columns, at the priority in
   [c.key], and return the sequence it is queued under. Inside a window of
   region [c] a push landing before the window end enters the queue
   immediately under a lane sequence (and is recorded for barrier
   re-sequencing; it is also popped within the window); anything at or
   beyond the window end waits in a [W_push] for the barrier to queue it,
   and gets -1 here, so the region queues only ever hold finally-sequenced
   events between windows. A window pushes only into its own region's
   queue: cross-region sends are replayed at the barrier. *)
let enqueue t c qu h =
  if not c.windowed then begin
    let seq = fresh_seq t in
    Scheduler.push qu.sched c.key ~seq h;
    seq
  end
  else begin
    assert (qu == c.q);
    let prio = c.key.prio in
    if prio < c.cur_wend then begin
      let k = lane_reserve c in
      witem_add c (W_imm k);
      let seq = lane_base + (k * t.nregions) + c.rid in
      Scheduler.push qu.sched c.key ~seq h;
      seq
    end
    else begin
      witem_add c (W_push { prio; h });
      -1
    end
  end

(* Queue a control or delivery handle at the priority in [c.key]. *)
let enqueue_event t c qu h = ignore (enqueue t c qu h : int)

(* The region holding [node]'s timers and receiving its messages. *)
let[@inline] region_of t node = t.regions.(t.node_region.(node))

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

(* Fill region [c]'s reading for [node] at [now], before a handler of
   [node] runs. *)
let[@inline] set_reading t c node ~now =
  let r = c.clock in
  r.Reading.now <- now;
  r.Reading.hw <- hw_value t node ~now

(* Queue [slot]'s timer of [node], a node of region [c], at the region's
   time, and record the entry as the slot's live one; any older entry of
   the slot is dead from here on. *)
let push_timer_event t c ~node ~slot =
  let now = region_now t c in
  let h_target = c.q.timers.tp_h.(slot) in
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
  c.key.prio <- fire_at;
  c.q.timers.tp_seq.(slot) <- enqueue t c c.q (lnot slot)

(* Put a message sent at [c.draw.at] on the wire: the loss draw, the
   delay draw and its bounds check, the sender's lie, tampering, and the
   delivery push with its duplicate. Serial and intra-region sends call it
   from [send]; a window's cross-region sends call it at the barrier, in
   serial send order, with their counts going to the sender's region
   [c]. *)
let transmit t c ~src ~dst ~edge ~dst_port ~lie msg =
  let d = c.draw in
  let at = d.Delay_model.at in
  let drop_p = Delay_model.drop_probability t.delays in
  if drop_p > 0. && Prng.float t.link_rngs.(edge) 1.0 < drop_p then begin
    c.dropped <- c.dropped + 1;
    if observed t then emit t c at (Obs_drop { src; dst; edge })
  end
  else begin
    Delay_model.draw t.delays ~edge ~src ~dst ~rng:t.link_rngs.(edge) d;
    let delay = d.Delay_model.delay in
    let b = Delay_model.edge_bounds t.delays edge in
    if not (delay >= b.Delay_model.d_min && delay <= b.Delay_model.d_max) then
      invalid_arg
        (Printf.sprintf
           "Engine.send: delay %g outside bounds [%g, %g] on edge %d (%d -> \
            %d)"
           delay b.Delay_model.d_min b.Delay_model.d_max edge src dst);
    (* The sender's lie applies first — a Byzantine node hands the network
       an already-false value; tampering (below) then acts on whatever was
       handed over, like for any other message. *)
    let told =
      match lie with
      | Lie_kept -> None
      | Lie_rewrote -> Some msg
      | Lie_unasked -> (
          match t.lie with
          | None -> None
          | Some lie -> lie ~src ~dst ~now:at ~rng:t.byz_rngs.(src) msg)
    in
    let msg =
      match told with
      | None -> msg
      | Some msg' ->
          c.lied <- c.lied + 1;
          if observed t then emit t c at (Obs_lie { src; dst; edge });
          msg'
    in
    (* Tampering applies after the bounds check: a reorder fault adds extra
       delay *by design* outside the paper's uncertainty model. *)
    let msg =
      match t.tamper with
      | None -> msg
      | Some tm -> (
          let rng = t.fault_rngs.(edge) in
          let extra = tm.extra_delay ~edge ~now:at ~rng in
          d.Delay_model.delay <- delay +. extra;
          match tm.corrupt ~edge ~now:at ~rng msg with
          | None -> msg
          | Some msg' ->
              c.corrupted <- c.corrupted + 1;
              if observed t then emit t c at (Obs_corrupt { src; dst; edge });
              msg')
    in
    let delay = d.Delay_model.delay in
    if observed t then emit t c at (Obs_send { src; dst; edge; delay });
    let qu = (region_of t dst).q in
    c.key.prio <- at +. delay;
    enqueue_event t c qu (alloc_deliver qu ~dst ~port:dst_port ~edge msg);
    match t.tamper with
    | Some tm when tm.duplicate ~edge ~now:at ~rng:t.fault_rngs.(edge) ->
        c.duplicated <- c.duplicated + 1;
        if observed t then emit t c at (Obs_duplicate { src; dst; edge });
        Delay_model.draw t.delays ~edge ~src ~dst ~rng:t.fault_rngs.(edge) d;
        c.key.prio <- at +. d.Delay_model.delay;
        enqueue_event t c qu (alloc_deliver qu ~dst ~port:dst_port ~edge msg)
    | _ -> ()
  end

(* Node [v] of region [c] sends on [port]. A window buffers a cross-region
   send for the barrier with only the sender's lie applied (from the
   sender's own stream, so it sees draws in the sender's send order); the
   edge-stream draws wait for the barrier's [transmit], which performs
   them in serial order. Every other send is transmitted at once. *)
let send t c v ~port msg =
  let g = t.graph in
  let edge = Graph.edge_at_port g v port in
  let dst = Graph.neighbor_at_port g v port in
  let dst_port = t.rev_port.(v).(port) in
  (* A crashed node's handlers never run, so this guard is defensive:
     nothing a down node "sends" may enter the network. *)
  if t.node_up.(v) then begin
    let at = region_now t c in
    c.sent <- c.sent + 1;
    if not t.edge_up.(edge) then begin
      c.dropped_faults <- c.dropped_faults + 1;
      if observed t then emit t c at (Obs_fault_drop { src = v; dst; edge })
    end
    else if c.windowed && t.edge_cross.(edge) then begin
      let told =
        match t.lie with
        | None -> None
        | Some lie -> lie ~src:v ~dst ~now:at ~rng:t.byz_rngs.(v) msg
      in
      let msg, lie =
        match told with
        | None -> (msg, Lie_kept)
        | Some msg' -> (msg', Lie_rewrote)
      in
      witem_add c (W_cross { at; src = v; dst; edge; dst_port; msg; lie })
    end
    else begin
      c.draw.Delay_model.at <- at;
      transmit t c ~src:v ~dst ~edge ~dst_port ~lie:Lie_unasked msg
    end
  end

(* Arm a timer of node [v], a node of region [c], [after] hardware time
   units past its current reading. *)
let set_timer t c v ~after ~tag =
  let h = hw_value t v ~now:(region_now t c) +. after in
  if Float.is_nan h then invalid_arg "Engine.set_timer: deadline is NaN";
  let pool = c.q.timers in
  let slot = pool_alloc pool t.node_timer_head ~node:v ~tag in
  pool.tp_h.(slot) <- h;
  push_timer_event t c ~node:v ~slot

let make_api t v =
  let c = region_of t v in
  {
    node = v;
    ports = Graph.degree t.graph v;
    clock = c.clock;
    send = (fun ~port msg -> send t c v ~port msg);
    set_timer = (fun ~after ~tag -> set_timer t c v ~after ~tag);
    rng = Prng.create ~seed:0 (* replaced in [of_config] *);
  }

let of_config (cfg : 'msg config) =
  let graph = cfg.cfg_graph in
  let clocks = cfg.cfg_clocks in
  let n = Graph.n graph in
  let m = Graph.m graph in
  if Array.length clocks <> n then
    invalid_arg "Engine.of_config: one hardware clock per node required";
  Array.iter
    (fun c ->
      if Hardware_clock.start_time c > cfg.cfg_t0 then
        invalid_arg "Engine.of_config: clock starts after t0")
    clocks;
  (* Resolve the effective region count. Parallel execution needs a
     positive lookahead (every cross-region edge's d_min bounds how soon
     one region can affect another), a hook-free dispatch path, and no lie
     under message loss (a window asks a cross-region lie before the
     barrier's drop draw, which the serial engine makes first); anything
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
    else if
      cfg.cfg_lie <> None && Delay_model.drop_probability cfg.cfg_delays > 0.
    then 1
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
      nregions;
      node_region;
      edge_cross;
      lookahead;
      regions = Array.init nregions (fun rid -> rctx_create ~rid ~t0:cfg.cfg_t0);
      ctrl_q = queue_create ();
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
      rev_port = Graph.reverse_ports graph;
      tamper = cfg.cfg_tamper;
      lie = cfg.cfg_lie;
      time = { at = cfg.cfg_t0 };
      started = false;
      observers = Array.of_list cfg.cfg_observers;
      dispatch_hook = cfg.cfg_hook;
      hook_every = cfg.cfg_hook_every;
      hook_left = cfg.cfg_hook_every;
      hook_armed = false;
      heap_high_water = 0;
      stop_requested = false;
    }
  in
  t.apis <-
    Array.init n (fun v -> { (make_api t v) with rng = node_rngs.(v) });
  t

let start t =
  if not t.started then begin
    t.started <- true;
    Array.iteri
      (fun v h ->
        set_reading t (region_of t v) v ~now:t.time.at;
        h.on_init t.apis.(v))
      t.handlers
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

(* Dispatch the entry [(seq, h)] just popped from [qu], region [c]'s queue
   or the control queue (whose dispatches count in region 0). A timer entry
   fires only if it is still its slot's live entry. A delivery's or a
   control's columns are read and its handle released (dropping its
   message or closure) before any handler runs, so the handler's own pushes
   may reuse the handle. *)
let dispatch t c qu ~seq h =
  c.events <- c.events + 1;
  let now = region_now t c in
  if h < 0 then begin
    let pool = qu.timers and slot = lnot h in
    if pool_live pool ~slot ~seq then begin
      let node = pool.tp_owner.(slot) in
      let h_now = hw_value t node ~now in
      if h_now +. 1e-9 >= pool.tp_h.(slot) then begin
        let tag = pool.tp_tag.(slot) in
        pool_free pool t.node_timer_head slot;
        c.timers_fired <- c.timers_fired + 1;
        if observed t then emit t c now (Obs_timer { node; tag });
        hook_before t Dispatch_timer;
        c.clock.Reading.now <- now;
        c.clock.Reading.hw <- h_now;
        t.handlers.(node).on_timer t.apis.(node) ~tag;
        hook_after t Dispatch_timer
      end
      else
        (* The clock slowed after this entry was pushed; re-aim. *)
        push_timer_event t c ~node ~slot
    end
    (* else: re-keyed, cancelled or already fired *)
  end
  else begin
    let head = qu.ev_head.(h) in
    if head land 1 = kind_deliver then begin
      let dst = head lsr 1 and port = qu.ev_x.(h) and edge = qu.ev_y.(h) in
      let msg = qu.ev_msg.(h) in
      (match qu.ev_fill with Some fill -> qu.ev_msg.(h) <- fill | None -> ());
      release qu h;
      (* Messages in flight when a partition starts or the receiver crashes
         are lost at delivery time. *)
      if (not t.node_up.(dst)) || not t.edge_up.(edge) then begin
        c.dropped_faults <- c.dropped_faults + 1;
        if observed t then
          emit t c now
            (Obs_fault_drop
               { src = Graph.neighbor_at_port t.graph dst port; dst; edge })
      end
      else begin
        c.delivered <- c.delivered + 1;
        if observed t then emit t c now (Obs_deliver { dst; port });
        hook_before t Dispatch_deliver;
        set_reading t c dst ~now;
        t.handlers.(dst).on_message t.apis.(dst) ~port msg;
        hook_after t Dispatch_deliver
      end
    end
    else begin
      let f = take_control qu (head lsr 1) in
      release qu h;
      c.controls_run <- c.controls_run + 1;
      hook_before t Dispatch_control;
      f ();
      hook_after t Dispatch_control
    end
  end

(* ---------------- serial execution (one region) ---------------- *)

let[@inline] note_heap_depth t sz =
  if sz > t.heap_high_water then t.heap_high_water <- sz

let run_until_serial t horizon =
  let c = t.regions.(0) in
  let q = c.q.sched in
  let head = c.head in
  let continue = ref true in
  while !continue && not t.stop_requested do
    note_heap_depth t (Scheduler.size q);
    Scheduler.min_into q head;
    if Scheduler.size q > 0 && head.prio <= horizon then begin
      let seq = Scheduler.min_seq q in
      let h = Scheduler.pop_min q in
      t.time.at <- Float.max t.time.at head.prio;
      dispatch t c c.q ~seq h
    end
    else continue := false
  done;
  (* A stopped run keeps [now] at the last processed event so the caller
     can see where execution was cut short. *)
  if not t.stop_requested then t.time.at <- Float.max t.time.at horizon

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
(*   edge streams draw in [transmit] at the barrier, in serial send      *)
(*   order;                                                              *)
(* - observations buffer per region and flush at the barrier in serial   *)
(*   dispatch order, so sinks see the exact serial stream.               *)
(* The one divergence: a Byzantine lie on a cross-region edge is asked   *)
(* at send time, so under message loss it would draw for messages the    *)
(* barrier then drops; [of_config] runs that combination serially.       *)
(* ------------------------------------------------------------------ *)

let run_region_window t c ~wend =
  c.cur_wend <- wend;
  c.windowed <- true;
  Domain.DLS.set dls_region_clock (Some c.clock);
  let q = c.q.sched in
  let head = c.head in
  Scheduler.min_into q head;
  while head.prio < wend do
    let seq = Scheduler.min_seq q in
    let h = Scheduler.pop_min q in
    if head.prio > c.clock.Reading.now then c.clock.Reading.now <- head.prio;
    pop_log_add c seq;
    dispatch t c c.q ~seq h;
    Scheduler.min_into q head
  done;
  c.windowed <- false;
  Domain.DLS.set dls_region_clock None

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
    | W_push { prio; h } ->
        c.key.prio <- prio;
        let seq = enqueue t c c.q h in
        if h < 0 then c.q.timers.tp_seq.(lnot h) <- seq
    | W_cross { at; src; dst; edge; dst_port; msg; lie } ->
        c.draw.Delay_model.at <- at;
        transmit t c ~src ~dst ~edge ~dst_port ~lie msg
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

(* The queue holding the minimum (prio, seq) over every queue: a region's
   index, or -1 for the control queue. *)
let min_region t =
  let best = ref (-1) and bq = ref t.ctrl_q.sched in
  for i = 0 to t.nregions - 1 do
    let q = t.regions.(i).q.sched in
    let p = Scheduler.min_prio q and bp = Scheduler.min_prio !bq in
    if p < bp || (p = bp && Scheduler.min_seq q < Scheduler.min_seq !bq)
    then begin
      best := i;
      bq := q
    end
  done;
  !best

let queue_of t i = if i < 0 then t.ctrl_q else t.regions.(i).q

(* Earliest pending event time over every queue; [infinity] when none. *)
let next_prio t = Scheduler.min_prio (queue_of t (min_region t)).sched

(* Pop the minimum event of queue [i] (see [min_region]) and dispatch it
   on the calling domain. *)
let dispatch_min t i =
  let qu = queue_of t i in
  let p = Scheduler.min_prio qu.sched in
  let seq = Scheduler.min_seq qu.sched in
  let h = Scheduler.pop_min qu.sched in
  assert (p +. 1e-9 >= t.time.at);
  t.time.at <- Float.max t.time.at p;
  dispatch t t.regions.(max i 0) qu ~seq h

let total_pending t =
  Array.fold_left
    (fun acc c -> acc + Scheduler.size c.q.sched)
    (Scheduler.size t.ctrl_q.sched)
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
    Mutex.unlock s.mutex
  in
  let continue = ref true in
  while !continue && not t.stop_requested do
    let next_p = next_prio t in
    if total_pending t = 0 || next_p > horizon then continue := false
    else begin
      note_heap_depth t (total_pending t);
      let wend =
        Float.min
          (Float.min (next_p +. t.lookahead)
             (Scheduler.min_prio t.ctrl_q.sched))
          horizon
      in
      if wend > next_p then release_window wend;
      merge_window t;
      Array.iter
        (fun c ->
          if c.clock.Reading.now > t.time.at then
            t.time.at <- c.clock.Reading.now)
        t.regions;
      (* Boundary pass: events and controls at exactly the window end run
         serially in global (prio, seq) order — this is where faults fire,
         probes sample a settled global state, and same-time cascades
         stay exact. *)
      let boundary = ref true in
      while !boundary && not t.stop_requested do
        let i = min_region t in
        if total_pending t > 0 && Scheduler.min_prio (queue_of t i).sched <= wend
        then begin
          note_heap_depth t (total_pending t);
          dispatch_min t i
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
  if not t.stop_requested then t.time.at <- Float.max t.time.at horizon

let run_until t horizon =
  start t;
  if t.nregions = 1 then run_until_serial t horizon
  else if total_pending t > 0 && next_prio t <= horizon then
    run_until_parallel t horizon
  else if not t.stop_requested then t.time.at <- Float.max t.time.at horizon

let step t =
  start t;
  note_heap_depth t (total_pending t);
  if total_pending t = 0 then false
  else begin
    dispatch_min t (min_region t);
    true
  end

let schedule_control t ~at f =
  if Float.is_nan at then invalid_arg "Engine.schedule_control: at is NaN";
  let c = t.regions.(0) in
  let qu = if t.nregions > 1 then t.ctrl_q else c.q in
  let h = alloc_control qu f in
  c.key.prio <- Float.max at t.time.at;
  enqueue_event t c qu h

let set_node_rate t ~node ~rate =
  let clock = t.clocks.(node) in
  Hardware_clock.set_rate clock ~now:t.time.at ~rate;
  (* A rate replaced at an existing breakpoint leaves the epoch unchanged;
     drop the cached segment explicitly. *)
  t.seg_epoch.(node) <- -1;
  if observed t then observe t (Obs_rate_change { node; rate });
  (* Re-key every pending timer: each gets a fresh entry reflecting the
     new rate, which leaves its old entry dead. Slots walk in insertion
     order. *)
  let c = region_of t node in
  let pool = c.q.timers in
  let slot = ref t.node_timer_head.(node) in
  while !slot >= 0 do
    let s = !slot in
    push_timer_event t c ~node ~slot:s;
    slot := pool.tp_next.(s)
  done

let crash_node t ~node =
  if t.node_up.(node) then begin
    t.node_up.(node) <- false;
    (* Freeing the slots turns every pending queue entry for this node into
       a no-op, exactly like the re-keying in [set_node_rate]. *)
    let pool = (region_of t node).q.timers in
    while t.node_timer_head.(node) >= 0 do
      pool_free pool t.node_timer_head t.node_timer_head.(node)
    done;
    if observed t then observe t (Obs_node_down { node })
  end

let recover_node t ~node ~wipe =
  if not t.node_up.(node) then begin
    t.node_up.(node) <- true;
    if observed t then observe t (Obs_node_up { node; wipe });
    if wipe then t.handlers.(node) <- t.make_node node;
    set_reading t (region_of t node) node ~now:t.time.at;
    t.handlers.(node).on_init t.apis.(node)
  end

let set_edge_up t ~edge ~up =
  if t.edge_up.(edge) <> up then begin
    t.edge_up.(edge) <- up;
    if observed t then
      observe t (if up then Obs_edge_up { edge } else Obs_edge_down { edge })
  end

let request_stop t = t.stop_requested <- true
let stop_requested t = t.stop_requested
let node_is_up t node = t.node_up.(node)
let edge_is_up t edge = t.edge_up.(edge)
let add_observer t f = t.observers <- Array.append t.observers [| f |]
let clear_observer t = t.observers <- [||]

(* An engine total: the sum of one counter over the regions. *)
let total t count = Array.fold_left (fun acc c -> acc + count c) 0 t.regions

let dispatch_count t = function
  | Dispatch_deliver -> total t (fun c -> c.delivered)
  | Dispatch_timer -> total t (fun c -> c.timers_fired)
  | Dispatch_control -> total t (fun c -> c.controls_run)

let hardware_clock t v = t.clocks.(v)
let graph t = t.graph
let regions t = t.nregions
let events_processed t = total t (fun c -> c.events)
let messages_sent t = total t (fun c -> c.sent)
let messages_delivered t = total t (fun c -> c.delivered)
let messages_dropped t = total t (fun c -> c.dropped)
let messages_dropped_faults t = total t (fun c -> c.dropped_faults)
let messages_duplicated t = total t (fun c -> c.duplicated)
let messages_corrupted t = total t (fun c -> c.corrupted)
let messages_lied t = total t (fun c -> c.lied)
let pending_events t = total_pending t
let heap_high_water t = t.heap_high_water


type 'msg pending =
  | Pending_deliver of { at : float; dst : int; port : int; edge : int; msg : 'msg }
  | Pending_timer of { at : float; node : int; h_target : float; tag : int }
  | Pending_control of { at : float }

let pending_snapshot t =
  (* Each queue renders in exact pop order via [Scheduler.sorted]. Timer
     entries that are no longer their slot's live entry are the no-op
     ghosts left behind by rescheduling or a crash and are not part of the
     observable state. The per-queue lists then merge by (prio, seq) — the
     same order a global pop loop would dispatch. *)
  let render qu =
    List.filter_map
      (fun (at, seq, h) ->
        if h < 0 then
          let pool = qu.timers and slot = lnot h in
          if pool_live pool ~slot ~seq then
            Some
              ( at,
                seq,
                Pending_timer
                  {
                    at;
                    node = pool.tp_owner.(slot);
                    h_target = pool.tp_h.(slot);
                    tag = pool.tp_tag.(slot);
                  } )
          else None
        else
          let head = qu.ev_head.(h) in
          if head land 1 = kind_deliver then
            Some
              ( at,
                seq,
                Pending_deliver
                  {
                    at;
                    dst = head lsr 1;
                    port = qu.ev_x.(h);
                    edge = qu.ev_y.(h);
                    msg = qu.ev_msg.(h);
                  } )
          else Some (at, seq, Pending_control { at }))
      (Scheduler.sorted qu.sched)
  in
  let merged =
    List.sort
      (fun (p1, s1, _) (p2, s2, _) ->
        let c = Float.compare p1 p2 in
        if c <> 0 then c else Int.compare s1 s2)
      (List.concat
         (render t.ctrl_q
         :: Array.to_list (Array.map (fun c -> render c.q) t.regions)))
  in
  List.map (fun (_, _, pending) -> pending) merged
