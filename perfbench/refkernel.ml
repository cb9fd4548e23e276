(* Reference kernel: a fixed, memory-bound piece of work whose wall time
   tracks how fast the host is running right now. The harness runs it
   right before and after every timed invocation of the program, so a
   slow host can be told apart from a slow program. It links nothing from
   gcs on purpose: no change to the program can move it.

   The work mirrors the simulator's hot loop in shape, not in code: a
   binary min-heap of float keys (the event queue) and random reads over a
   32 MiB float array (node state far larger than the caches). The PRNG
   is a fixed xorshift, so every run does identical work and prints the
   same checksum. *)

let data_len = 1 lsl 22 (* 4 Mi floats = 32 MiB *)
let heap_len = 1 lsl 17
let heap_rounds = 6
let reads = 1 lsl 23

let () =
  let t0 = Unix.gettimeofday () in
  let state = ref 0x2545F4914F6CDD1D in
  let next () =
    let x = !state in
    let x = x lxor (x lsl 13) in
    let x = x lxor (x lsr 7) in
    let x = x lxor (x lsl 17) in
    state := x;
    x land max_int
  in
  let data = Array.init data_len (fun _ -> float (next () land 0xFFFF)) in
  let heap = Array.make heap_len 0. in
  let size = ref 0 in
  let push k =
    let i = ref !size in
    incr size;
    while !i > 0 && heap.((!i - 1) / 2) > k do
      heap.(!i) <- heap.((!i - 1) / 2);
      i := (!i - 1) / 2
    done;
    heap.(!i) <- k
  in
  let pop () =
    let top = heap.(0) in
    decr size;
    let last = heap.(!size) in
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      if l >= !size then continue := false
      else begin
        let c = if l + 1 < !size && heap.(l + 1) < heap.(l) then l + 1 else l in
        if heap.(c) < last then begin
          heap.(!i) <- heap.(c);
          i := c
        end
        else continue := false
      end
    done;
    heap.(!i) <- last;
    top
  in
  let sum = ref 0. in
  for _ = 1 to heap_rounds do
    for _ = 1 to heap_len do
      push (data.(next () land (data_len - 1)))
    done;
    let prev = ref neg_infinity in
    for _ = 1 to heap_len do
      let k = pop () in
      if k < !prev then failwith "refkernel: heap order broken";
      prev := k;
      sum := !sum +. k
    done
  done;
  for _ = 1 to reads do
    sum := !sum +. data.(next () land (data_len - 1))
  done;
  let t1 = Unix.gettimeofday () in
  Printf.printf "ref_s %.6f checksum %.0f\n" (t1 -. t0) !sum
