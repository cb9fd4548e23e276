(* The discrete-event engine's priority queue.

   A priority queue keyed by (float priority, int sequence): the engine
   orders events by simulation time and breaks ties by a monotonically
   increasing sequence number it assigns at push time, which makes pop
   order total and runs reproducible. The sequence lives in the caller
   (the engine owns event identity); the heap only has to respect it.

   What the heap orders is an int handle: the caller keeps the payload
   (the engine keeps each queued event in its own unboxed columns) and the
   handle names it. So every column here is unboxed — float priorities,
   int sequences, int handles — a push allocates nothing beyond amortized
   growth, and no sift ever writes a pointer (no write barrier, nothing
   for the minor collector to scan). Sifts move a hole, not an entry:
   each level copies one entry into the hole, and the moving entry is
   written once, where the hole stops. *)

type key = { mutable prio : float }

let key () = { prio = 0. }

type t = {
  mutable prios : float array;
  mutable seqs : int array;
  mutable vals : int array;
  mutable len : int;
}

(* Capacity of the first allocation; later ones double. *)
let first_capacity = 64

let create () = { prios = [||]; seqs = [||]; vals = [||]; len = 0 }
let size t = t.len
let is_empty t = t.len = 0

let grow t =
  let cap = Array.length t.prios in
  let ncap = if cap = 0 then first_capacity else 2 * cap in
  let np = Array.make ncap 0. in
  let ns = Array.make ncap 0 in
  let nv = Array.make ncap 0 in
  Array.blit t.prios 0 np 0 t.len;
  Array.blit t.seqs 0 ns 0 t.len;
  Array.blit t.vals 0 nv 0 t.len;
  t.prios <- np;
  t.seqs <- ns;
  t.vals <- nv

let push t key ~seq v =
  if t.len = Array.length t.prios then grow t;
  let prio = key.prio in
  let prios = t.prios and seqs = t.seqs and vals = t.vals in
  let i = ref t.len in
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
  t.len <- t.len + 1

let min_prio t = if t.len = 0 then infinity else t.prios.(0)
let min_into t key = key.prio <- (if t.len = 0 then infinity else t.prios.(0))
let min_seq t = if t.len = 0 then max_int else t.seqs.(0)

(* Remove the root. The last entry fills the hole the root leaves and
   sinks. *)
let pop_min t =
  if t.len = 0 then invalid_arg "Scheduler.pop_min: empty";
  let prios = t.prios and seqs = t.seqs and vals = t.vals in
  let top = vals.(0) in
  let n = t.len - 1 in
  t.len <- n;
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

let sorted t =
  let acc = ref [] in
  for i = t.len - 1 downto 0 do
    acc := (t.prios.(i), t.seqs.(i), t.vals.(i)) :: !acc
  done;
  List.sort
    (fun (p1, s1, _) (p2, s2, _) ->
      let c = Float.compare p1 p2 in
      if c <> 0 then c else Int.compare s1 s2)
    !acc
