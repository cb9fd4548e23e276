type t = {
  hardware : Hardware_clock.t;
  mutable base : float; (* logical value at the last control action *)
  mutable h_base : float; (* hardware value at the last control action *)
  mutable mult : float;
  mutable last_action : float; (* real time of the last control action *)
  mutable jump_count : int;
  mutable jump_total : float; (* sum of |jump| *)
  mutable jump_max : float;
}

type jump_stats = { count : int; total_magnitude : float; max_magnitude : float }

let create ~hardware ~now ~value ~mult =
  if mult <= 0. then invalid_arg "Logical_clock.create: mult must be > 0";
  {
    hardware;
    base = value;
    h_base = Hardware_clock.value hardware ~now;
    mult;
    last_action = now;
    jump_count = 0;
    jump_total = 0.;
    jump_max = 0.;
  }

let value t ~now =
  if now < t.last_action then
    invalid_arg "Logical_clock.value: time precedes last control action";
  t.base +. (t.mult *. (Hardware_clock.value t.hardware ~now -. t.h_base))

let read t (r : Reading.t) =
  if r.now < t.last_action then
    invalid_arg "Logical_clock.read: time precedes last control action";
  r.logical <- t.base +. (t.mult *. (r.hw -. t.h_base))

let values clocks ~now =
  let out = Array.create_float (Array.length clocks) in
  let r = { Reading.now; hw = 0.; logical = 0. } in
  Array.iteri
    (fun i t ->
      Hardware_clock.read t.hardware r;
      read t r;
      out.(i) <- r.logical)
    clocks;
  out

let rate t ~now = t.mult *. Hardware_clock.rate_at t.hardware ~now
let mult t = t.mult

let resync t ~now =
  let v = value t ~now in
  t.base <- v;
  t.h_base <- Hardware_clock.value t.hardware ~now;
  t.last_action <- now

let set_mult t ~now m =
  if m <= 0. then invalid_arg "Logical_clock.set_mult: mult must be > 0";
  resync t ~now;
  t.mult <- m

(* [set_mult] at a reading, computed as [read] does: the reading's [hw]
   is bit-identical to [Hardware_clock.value] at its [now]. *)
let retarget t (r : Reading.t) m =
  if t.mult <> m then begin
    if m <= 0. then invalid_arg "Logical_clock.set_mult: mult must be > 0";
    read t r;
    t.base <- r.logical;
    t.h_base <- r.hw;
    t.last_action <- r.now;
    t.mult <- m
  end

let jump_to t ~now v =
  resync t ~now;
  let magnitude = Float.abs (v -. t.base) in
  t.jump_count <- t.jump_count + 1;
  t.jump_total <- t.jump_total +. magnitude;
  if magnitude > t.jump_max then t.jump_max <- magnitude;
  t.base <- v

let advance t ~now delta =
  resync t ~now;
  let magnitude = Float.abs delta in
  t.jump_count <- t.jump_count + 1;
  t.jump_total <- t.jump_total +. magnitude;
  if magnitude > t.jump_max then t.jump_max <- magnitude;
  t.base <- t.base +. delta

let hardware t = t.hardware
let last_action t = t.last_action

let jump_stats t =
  {
    count = t.jump_count;
    total_magnitude = t.jump_total;
    max_magnitude = t.jump_max;
  }
