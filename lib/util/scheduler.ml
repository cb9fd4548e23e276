(* Pending-event schedulers for the discrete-event engine.

   A scheduler is a priority queue keyed by (float priority, int sequence):
   the engine orders events by simulation time and breaks ties by a
   monotonically increasing sequence number it assigns at push time, which
   makes pop order total and runs reproducible. The sequence lives in the
   caller (the engine owns event identity); implementations only have to
   respect it.

   What a scheduler orders is an int handle: the caller keeps the payload
   (the engine keeps each queued event in its own unboxed columns) and the
   handle names it. So every column here is unboxed — float priorities,
   int sequences, int handles — a push allocates nothing beyond amortized
   growth, and no sift ever writes a pointer (no write barrier, nothing
   for the minor collector to scan).

   Two implementations are provided behind one signature: the binary heap
   (the reference — O(log n), branchy, order-oblivious) and a calendar
   queue (amortized O(1) for the time-localized access pattern of a
   simulation, where most pushes land a bounded horizon ahead of the pop
   front). *)

module type S = sig
  type t

  val create : ?capacity:int -> unit -> t
  (** [capacity] is a size hint; both implementations grow on demand. *)

  val size : t -> int
  val is_empty : t -> bool

  val push : t -> prio:float -> seq:int -> int -> unit
  (** Insert a handle with explicit tiebreaker. Pop order is ascending
      [(prio, seq)]; the caller is responsible for sequence monotonicity if
      it wants insertion-order tie-breaking. *)

  val min_prio : t -> float
  (** Priority of the next pop; [infinity] when empty (so schedulers merge
      with a bare [Float.min]). *)

  val min_seq : t -> int
  (** Sequence of the next pop; [max_int] when empty. *)

  val min_value : t -> int
  (** Handle of the next pop without removing it. @raise Invalid_argument
      when empty. *)

  val pop_min : t -> int
  (** Remove and return the minimum entry's handle (read [min_prio] /
      [min_seq] first if the key is needed). @raise Invalid_argument when
      empty. *)

  val clear : t -> unit

  val sorted : ?keep:(int -> bool) -> t -> (float * int * int) list
  (** The queue's contents in exact pop order, without modifying it.
      [keep] filters entries out of the rendering by handle. *)
end

(* ------------------------------------------------------------------ *)
(* Heap columns: an array-backed binary min-heap on (prio, seq) in      *)
(* three unboxed columns. The binary heap below is one; every day       *)
(* bucket of the calendar queue is another. Sifts move a hole, not an   *)
(* entry: each level copies one entry into the hole, and the moving     *)
(* entry is written once, where the hole stops.                         *)
(* ------------------------------------------------------------------ *)

module Cols = struct
  type t = {
    mutable prios : float array;
    mutable seqs : int array;
    mutable vals : int array;
    mutable len : int;
  }

  let create () = { prios = [||]; seqs = [||]; vals = [||]; len = 0 }

  let reset c =
    c.prios <- [||];
    c.seqs <- [||];
    c.vals <- [||];
    c.len <- 0

  (* [first] is the capacity of the first allocation; later ones double. *)
  let grow c ~first =
    let cap = Array.length c.prios in
    let ncap = if cap = 0 then first else 2 * cap in
    let np = Array.make ncap 0. in
    let ns = Array.make ncap 0 in
    let nv = Array.make ncap 0 in
    Array.blit c.prios 0 np 0 c.len;
    Array.blit c.seqs 0 ns 0 c.len;
    Array.blit c.vals 0 nv 0 c.len;
    c.prios <- np;
    c.seqs <- ns;
    c.vals <- nv

  let push c ~first ~prio ~seq v =
    if c.len = Array.length c.prios then grow c ~first;
    let prios = c.prios and seqs = c.seqs and vals = c.vals in
    let i = ref c.len in
    let rising = ref true in
    while !rising && !i > 0 do
      let parent = (!i - 1) / 2 in
      let pp = prios.(parent) in
      if prio < pp || (prio = pp && seq < seqs.(parent)) then begin
        prios.(!i) <- pp;
        seqs.(!i) <- seqs.(parent);
        vals.(!i) <- vals.(parent);
        i := parent
      end
      else rising := false
    done;
    prios.(!i) <- prio;
    seqs.(!i) <- seq;
    vals.(!i) <- v;
    c.len <- c.len + 1

  (* Remove the root; the caller has checked [len > 0]. The last entry
     fills the hole the root leaves and sinks. *)
  let pop c =
    let prios = c.prios and seqs = c.seqs and vals = c.vals in
    let top = vals.(0) in
    let n = c.len - 1 in
    c.len <- n;
    if n > 0 then begin
      let prio = prios.(n) and seq = seqs.(n) and v = vals.(n) in
      let i = ref 0 in
      let sinking = ref true in
      while !sinking do
        let l = (2 * !i) + 1 in
        if l >= n then sinking := false
        else begin
          let r = l + 1 in
          let ch =
            if
              r < n
              && (prios.(r) < prios.(l)
                 || (prios.(r) = prios.(l) && seqs.(r) < seqs.(l)))
            then r
            else l
          in
          let pc = prios.(ch) in
          if pc < prio || (pc = prio && seqs.(ch) < seq) then begin
            prios.(!i) <- pc;
            seqs.(!i) <- seqs.(ch);
            vals.(!i) <- vals.(ch);
            i := ch
          end
          else sinking := false
        end
      done;
      prios.(!i) <- prio;
      seqs.(!i) <- seq;
      vals.(!i) <- v
    end;
    top
end

let compare_key (p1, s1, _) (p2, s2, _) =
  let c = Float.compare p1 p2 in
  if c <> 0 then c else Int.compare s1 s2

(* ------------------------------------------------------------------ *)
(* Binary heap: the reference implementation.                          *)
(* ------------------------------------------------------------------ *)

module Binary_heap : S = struct
  type t = { h : Cols.t; hint : int }

  let create ?(capacity = 64) () = { h = Cols.create (); hint = max capacity 1 }
  let size t = t.h.len
  let is_empty t = t.h.len = 0
  let push t ~prio ~seq v = Cols.push t.h ~first:t.hint ~prio ~seq v
  let min_prio t = if t.h.len = 0 then infinity else t.h.prios.(0)
  let min_seq t = if t.h.len = 0 then max_int else t.h.seqs.(0)

  let min_value t =
    if t.h.len = 0 then invalid_arg "Scheduler.Binary_heap.min_value: empty";
    t.h.vals.(0)

  let pop_min t =
    if t.h.len = 0 then invalid_arg "Scheduler.Binary_heap.pop_min: empty";
    Cols.pop t.h

  let clear t = Cols.reset t.h

  let sorted ?(keep = fun _ -> true) t =
    let h = t.h in
    let acc = ref [] in
    for i = h.len - 1 downto 0 do
      if keep h.vals.(i) then
        acc := (h.prios.(i), h.seqs.(i), h.vals.(i)) :: !acc
    done;
    List.sort compare_key !acc
end

(* ------------------------------------------------------------------ *)
(* Calendar queue (Brown 1988): an array of day buckets of width        *)
(* [width]; an event with priority p lives in bucket                    *)
(* floor(p / width) mod nbuckets. Dequeue scans forward from the        *)
(* current day and only considers events of the current day of the      *)
(* current year, so with a well-chosen width both operations are        *)
(* amortized O(1). Each bucket is itself a small binary heap ordered    *)
(* by (prio, seq) — not a sorted array: a heap keeps bucket access      *)
(* O(log k) even when an adversarial or degenerate workload (say, a     *)
(* million timers armed at the same instant) piles one bucket high,     *)
(* where a sorted array's insert/pop-head blits would go quadratic.     *)
(* Pop order is identical to the binary heap's.                         *)
(* ------------------------------------------------------------------ *)

module Calendar : S = struct
  type t = {
    mutable buckets : Cols.t array;
    mutable mask : int; (* nbuckets - 1; nbuckets is a power of two *)
    mutable width : float;
    mutable size : int;
    mutable last_prio : float; (* dequeue position *)
    mutable peeked : int; (* bucket holding the cached min; -1 = unknown *)
    mutable respread_at : int;
        (* once the bucket count is capped, re-run the width heuristic
           whenever the population doubles past this size, so the calendar
           keeps adapting to the priority distribution *)
  }

  (* First capacity of a day bucket; buckets double from there. *)
  let bucket_hint = 4
  let init_nbuckets = 8

  let create ?(capacity = 64) () =
    ignore capacity;
    {
      buckets = Array.init init_nbuckets (fun _ -> Cols.create ());
      mask = init_nbuckets - 1;
      width = 1.0;
      size = 0;
      last_prio = neg_infinity;
      peeked = -1;
      respread_at = max_int;
    }

  let size t = t.size
  let is_empty t = t.size = 0

  (* Day number of a priority. The year scan tests bucket membership with
     this exact expression — the same floor the placement below buckets by —
     so scan and placement can never disagree (an accumulated [top +. width]
     bound would drift in the last ulp and misorder entries near a day
     boundary). Day numbers are integral floats, exact up to 2^53. *)
  let[@inline] day_of t prio = Float.floor (prio /. t.width)

  let[@inline] bucket_of_day t d =
    (* Simulation priorities are finite and non-negative in practice, but
       stay total anyway: any finite float maps to some bucket, and
       correctness never depends on which (the year scan falls back to a
       direct minimum search). *)
    if Float.abs d >= 1e18 then 0 else Float.to_int d land t.mask

  let[@inline] index_of t prio = bucket_of_day t (day_of t prio)

  let bucket_insert b ~prio ~seq v =
    Cols.push b ~first:bucket_hint ~prio ~seq v

  (* Align the dequeue position on [prio]; the scan day is derived from
     [last_prio] on demand, so this is the whole of the position state. *)
  let align t prio = t.last_prio <- prio

  let iter_entries t f =
    Array.iter
      (fun (b : Cols.t) ->
        for i = 0 to b.len - 1 do
          f b.prios.(i) b.seqs.(i) b.vals.(i)
        done)
      t.buckets

  (* Pick a width from the current population: spread the middle of the
     sorted priorities over ~3 entries per day. Any positive value is
     correct; this one keeps buckets short for clustered priorities while
     ignoring far outliers. The sample strides evenly across the whole
     population — sampling the first entries encountered would see only
     one or two buckets and miss the distribution's spread entirely when
     a single priority cluster dominates. *)
  let choose_width t =
    let want = min t.size 64 in
    if want < 2 then t.width
    else begin
      let sample = Array.make want 0. in
      let step = max 1 (t.size / want) in
      let k = ref 0 and i = ref 0 in
      iter_entries t (fun p _ _ ->
          if !i mod step = 0 && !k < want then begin
            sample.(!k) <- p;
            incr k
          end;
          incr i);
      let n = !k in
      if n < 2 then t.width
      else begin
        let sample = Array.sub sample 0 n in
        Array.sort Float.compare sample;
        let lo = sample.(n / 4) and hi = sample.(n - 1 - (n / 4)) in
        let span = hi -. lo in
        if span <= 0. then t.width
        else
          let gap = span /. float_of_int (n - (2 * (n / 4)) + 1) in
          Float.max 1e-9 (3. *. gap)
      end
    end

  let resize t nbuckets' =
    let old = t.buckets in
    let width' = choose_width t in
    t.buckets <- Array.init nbuckets' (fun _ -> Cols.create ());
    t.mask <- nbuckets' - 1;
    t.width <- width';
    let n = t.size in
    t.size <- 0;
    Array.iter
      (fun (b : Cols.t) ->
        for i = 0 to b.len - 1 do
          let bkt = t.buckets.(index_of t b.prios.(i)) in
          bucket_insert bkt ~prio:b.prios.(i) ~seq:b.seqs.(i) b.vals.(i)
        done)
      old;
    t.size <- n;
    t.peeked <- -1;
    t.respread_at <- 2 * t.size;
    (* Re-anchor the scan position on the global minimum. *)
    if t.size > 0 then begin
      let best = ref nan and found = ref false in
      iter_entries t (fun p _ _ ->
          if (not !found) || p < !best then begin
            best := p;
            found := true
          end);
      align t !best
    end

  let push t ~prio ~seq v =
    let b = t.buckets.(index_of t prio) in
    bucket_insert b ~prio ~seq v;
    t.size <- t.size + 1;
    if t.size = 1 then align t prio
    else if prio < t.last_prio then align t prio;
    (* A new entry at or before the cached minimum's priority may displace
       it — including at equal priority with a smaller sequence (callers
       are free to hand out non-monotone sequences; the region-parallel
       engine does). *)
    if t.peeked >= 0 && prio <= t.buckets.(t.peeked).prios.(0) then
      t.peeked <- -1;
    if t.size > 2 * (t.mask + 1) then begin
      if t.mask < 0xFFFF then resize t (2 * (t.mask + 1))
      else if t.size >= t.respread_at then
        (* Bucket count is capped: rebuild at the same size to refresh the
           width, so late-arriving priority spreads still get spread out. *)
        resize t (t.mask + 1)
    end

  (* Find the bucket holding the minimum (prio, seq) entry; caches the
     result for the pop that typically follows a peek. Returns -1 when
     empty. *)
  let find_min t =
    if t.size = 0 then -1
    else if t.peeked >= 0 then t.peeked
    else begin
      let nbuckets = t.mask + 1 in
      let found = ref (-1) in
      (* Year scan: walk whole days forward from the dequeue position. An
         entry belongs to the scanned day iff [day_of] agrees — the same
         computation that placed it, so the test cannot misfile an entry
         the way an accumulated floating-point day bound can. *)
      let day = ref (day_of t t.last_prio) in
      (try
         for _ = 0 to nbuckets - 1 do
           let i = bucket_of_day t !day in
           let b = t.buckets.(i) in
           if b.len > 0 && day_of t b.prios.(0) = !day then begin
             found := i;
             raise Exit
           end;
           day := !day +. 1.
         done
       with Exit -> ());
      if !found < 0 then begin
        (* Sparse year: direct search over bucket heads. *)
        let best = ref (-1) in
        for j = 0 to nbuckets - 1 do
          let b = t.buckets.(j) in
          if b.len > 0 then
            if
              !best < 0
              ||
              let c = t.buckets.(!best) in
              b.prios.(0) < c.prios.(0)
              || (b.prios.(0) = c.prios.(0) && b.seqs.(0) < c.seqs.(0))
            then best := j
        done;
        found := !best;
        align t t.buckets.(!best).prios.(0)
      end;
      t.peeked <- !found;
      !found
    end

  let min_prio t =
    let i = find_min t in
    if i < 0 then infinity else t.buckets.(i).prios.(0)

  let min_seq t =
    let i = find_min t in
    if i < 0 then max_int else t.buckets.(i).seqs.(0)

  let min_value t =
    let i = find_min t in
    if i < 0 then invalid_arg "Scheduler.Calendar.min_value: empty";
    t.buckets.(i).vals.(0)

  let pop_min t =
    let i = find_min t in
    if i < 0 then invalid_arg "Scheduler.Calendar.pop_min: empty";
    let b = t.buckets.(i) in
    t.last_prio <- b.prios.(0);
    let v = Cols.pop b in
    t.size <- t.size - 1;
    t.peeked <- -1;
    if t.size < (t.mask + 1) / 2 && t.mask + 1 > init_nbuckets then
      resize t ((t.mask + 1) / 2);
    v

  let clear t =
    t.buckets <- Array.init init_nbuckets (fun _ -> Cols.create ());
    t.mask <- init_nbuckets - 1;
    t.width <- 1.0;
    t.size <- 0;
    t.last_prio <- neg_infinity;
    t.peeked <- -1;
    t.respread_at <- max_int

  let sorted ?(keep = fun _ -> true) t =
    let acc = ref [] in
    iter_entries t (fun p s v -> if keep v then acc := (p, s, v) :: !acc);
    List.sort compare_key !acc
end

(* ------------------------------------------------------------------ *)
(* Packed instances: a scheduler as a value, so the engine can be       *)
(* functorized over [S] yet still select the implementation per run.    *)
(* ------------------------------------------------------------------ *)

type t = {
  size : unit -> int;
  push : prio:float -> seq:int -> int -> unit;
  min_prio : unit -> float;
  min_seq : unit -> int;
  min_value : unit -> int;
  pop_min : unit -> int;
  clear : unit -> unit;
  sorted : keep:(int -> bool) -> (float * int * int) list;
}

module Pack (Q : S) = struct
  let make ?capacity () =
    let q = Q.create ?capacity () in
    {
      size = (fun () -> Q.size q);
      push = (fun ~prio ~seq v -> Q.push q ~prio ~seq v);
      min_prio = (fun () -> Q.min_prio q);
      min_seq = (fun () -> Q.min_seq q);
      min_value = (fun () -> Q.min_value q);
      pop_min = (fun () -> Q.pop_min q);
      clear = (fun () -> Q.clear q);
      sorted = (fun ~keep -> Q.sorted ~keep q);
    }
end

module Packed_heap = Pack (Binary_heap)
module Packed_calendar = Pack (Calendar)

type kind = Binary_heap | Calendar

let make ?capacity = function
  | Binary_heap -> Packed_heap.make ?capacity ()
  | Calendar -> Packed_calendar.make ?capacity ()

let kind_name = function Binary_heap -> "heap" | Calendar -> "calendar"

let kind_of_string = function
  | "heap" | "binary-heap" -> Ok Binary_heap
  | "calendar" | "calendar-queue" -> Ok Calendar
  | s -> Error (Printf.sprintf "unknown scheduler %S (heap|calendar)" s)

let all_kinds = [ Binary_heap; Calendar ]
