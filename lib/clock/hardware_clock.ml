type t = {
  mutable times : float array; (* breakpoint real times, strictly increasing *)
  mutable values : float array; (* clock value at each breakpoint *)
  mutable rates : float array; (* rate from breakpoint i to i+1 (last: to inf) *)
  mutable len : int;
}

let create ?(h0 = 0.) ~t0 ~rate () =
  if rate <= 0. then invalid_arg "Hardware_clock.create: rate must be > 0";
  {
    times = Array.make 8 t0;
    values = Array.make 8 h0;
    rates = Array.make 8 rate;
    len = 1;
  }

let ensure_capacity t =
  if t.len = Array.length t.times then begin
    let ncap = 2 * t.len in
    let grow a = Array.append a (Array.make (ncap - t.len) a.(0)) in
    t.times <- grow t.times;
    t.values <- grow t.values;
    t.rates <- grow t.rates
  end

(* Index of the segment containing [now]: the last breakpoint with time <=
   now. Queries cluster at the live end, so check it before binary search. *)
let segment_index t now =
  if now >= t.times.(t.len - 1) then t.len - 1
  else begin
    let lo = ref 0 and hi = ref (t.len - 1) in
    (* invariant: times.(lo) <= now < times.(hi) *)
    while !hi - !lo > 1 do
      let mid = (!lo + !hi) / 2 in
      if t.times.(mid) <= now then lo := mid else hi := mid
    done;
    !lo
  end

let[@inline] value_at t now =
  if now < t.times.(0) then
    invalid_arg "Hardware_clock.value: time before clock start";
  let i = segment_index t now in
  t.values.(i) +. (t.rates.(i) *. (now -. t.times.(i)))

let value t ~now = value_at t now
let read t (r : Reading.t) = r.hw <- value_at t r.now

let inverse t ~h =
  if h < t.values.(0) then
    invalid_arg "Hardware_clock.inverse: value before clock start";
  let i =
    if h >= t.values.(t.len - 1) then t.len - 1
    else begin
      let lo = ref 0 and hi = ref (t.len - 1) in
      while !hi - !lo > 1 do
        let mid = (!lo + !hi) / 2 in
        if t.values.(mid) <= h then lo := mid else hi := mid
      done;
      !lo
    end
  in
  t.times.(i) +. ((h -. t.values.(i)) /. t.rates.(i))

let rate_at t ~now =
  if now < t.times.(0) then
    invalid_arg "Hardware_clock.rate_at: time before clock start";
  t.rates.(segment_index t now)

let set_rate t ~now ~rate =
  if rate <= 0. then invalid_arg "Hardware_clock.set_rate: rate must be > 0";
  let last = t.times.(t.len - 1) in
  if now < last then
    invalid_arg "Hardware_clock.set_rate: breakpoint in the past";
  if now = last then t.rates.(t.len - 1) <- rate
  else begin
    let v = value t ~now in
    ensure_capacity t;
    t.times.(t.len) <- now;
    t.values.(t.len) <- v;
    t.rates.(t.len) <- rate;
    t.len <- t.len + 1
  end

let start_time t = t.times.(0)
let last_breakpoint t = t.times.(t.len - 1)
let breakpoint_count t = t.len

let segment t ~now =
  if now < t.times.(0) then
    invalid_arg "Hardware_clock.segment: time before clock start";
  let i = segment_index t now in
  let until = if i = t.len - 1 then infinity else t.times.(i + 1) in
  (t.times.(i), t.values.(i), t.rates.(i), until)

let breakpoints t =
  List.init t.len (fun i -> (t.times.(i), t.values.(i), t.rates.(i)))
