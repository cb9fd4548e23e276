module Engine = Gcs_sim.Engine

let n_kinds = 3

let kind_index = function
  | Engine.Dispatch_deliver -> 0
  | Engine.Dispatch_timer -> 1
  | Engine.Dispatch_control -> 2

type t = {
  sample_every : int;
  clock_cost : float;
  mutable t0 : float;
  sampled : int array;
  sampled_wall : float array;
  mutable phases_rev : (string * float) list;
}

(* A sampled interval spans one full clock read (the return of the first
   call plus the entry of the second), which on syscall-backed clocks can
   dwarf a sub-microsecond handler. Calibrate that cost once per process,
   at start-up rather than lazily: profilers are created on several
   domains at once, and forcing one lazy value from two domains raises
   [Lazy.Undefined]. *)
let clock_cost =
  let n = 256 in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to n do
    ignore (Sys.opaque_identity (Unix.gettimeofday ()))
  done;
  (Unix.gettimeofday () -. t0) /. float_of_int n

let create ?(sample_every = 64) () =
  if sample_every <= 0 then
    invalid_arg "Profiler.create: sample_every must be > 0";
  {
    sample_every;
    clock_cost;
    t0 = 0.;
    sampled = Array.make n_kinds 0;
    sampled_wall = Array.make n_kinds 0.;
    phases_rev = [];
  }

let sample_every t = t.sample_every

(* The engine's sampling gate ([Engine.config]'s [?hook_every]) already
   skips unsampled dispatches and keeps exact per-kind counts, so these
   hooks only ever run for dispatches that are being timed. *)
let hooks t =
  let before _kind = t.t0 <- Unix.gettimeofday () in
  let after kind =
    let i = kind_index kind in
    t.sampled.(i) <- t.sampled.(i) + 1;
    let dt = Unix.gettimeofday () -. t.t0 -. t.clock_cost in
    t.sampled_wall.(i) <- t.sampled_wall.(i) +. Float.max 0. dt
  in
  { Engine.before; after }

let phase t name f =
  let start = Unix.gettimeofday () in
  Fun.protect
    ~finally:(fun () ->
      t.phases_rev <- (name, Unix.gettimeofday () -. start) :: t.phases_rev)
    f

type report = {
  events : int;
  messages : int;
  deliver_count : int;
  timer_count : int;
  control_count : int;
  deliver_wall : float;
  timer_wall : float;
  control_wall : float;
  heap_high_water : int;
  total_wall : float;
  phases : (string * float) list;
}

(* Per-kind walls are estimates: only every [sample_every]-th dispatch is
   timed, and the sampled total is scaled up by count/sampled. *)
let estimate t i count =
  if t.sampled.(i) = 0 then 0.
  else t.sampled_wall.(i) *. float_of_int count /. float_of_int t.sampled.(i)

let finish t ~events ~messages ~deliver_count ~timer_count ~control_count
    ~heap_high_water =
  let phases = List.rev t.phases_rev in
  let dw = estimate t 0 deliver_count
  and tw = estimate t 1 timer_count
  and cw = estimate t 2 control_count in
  let total_wall =
    match phases with
    | [] -> dw +. tw +. cw
    | ps -> List.fold_left (fun a (_, w) -> a +. w) 0. ps
  in
  {
    events;
    messages;
    deliver_count;
    timer_count;
    control_count;
    deliver_wall = dw;
    timer_wall = tw;
    control_wall = cw;
    heap_high_water;
    total_wall;
    phases;
  }

let events_per_sec r =
  if r.total_wall <= 0. then 0. else float_of_int r.events /. r.total_wall

let merge reports =
  match reports with
  | [] -> invalid_arg "Profiler.merge: empty list"
  | first :: _ ->
      let sum f = List.fold_left (fun a r -> a + f r) 0 reports in
      let sumf f = List.fold_left (fun a r -> a +. f r) 0. reports in
      let maxi f = List.fold_left (fun a r -> Stdlib.max a (f r)) 0 reports in
      let phases =
        (* Keep the first report's phase order; sum walls by name. *)
        List.map
          (fun (name, _) ->
            ( name,
              List.fold_left
                (fun a r ->
                  match List.assoc_opt name r.phases with
                  | Some w -> a +. w
                  | None -> a)
                0. reports ))
          first.phases
      in
      {
        events = sum (fun r -> r.events);
        messages = sum (fun r -> r.messages);
        deliver_count = sum (fun r -> r.deliver_count);
        timer_count = sum (fun r -> r.timer_count);
        control_count = sum (fun r -> r.control_count);
        deliver_wall = sumf (fun r -> r.deliver_wall);
        timer_wall = sumf (fun r -> r.timer_wall);
        control_wall = sumf (fun r -> r.control_wall);
        heap_high_water = maxi (fun r -> r.heap_high_water);
        total_wall = sumf (fun r -> r.total_wall);
        phases;
      }

let lines r =
  let f = Printf.sprintf in
  [
    f "events processed   %d" r.events;
    f "messages sent      %d" r.messages;
    f "events/sec         %.0f" (events_per_sec r);
    f "heap high-water    %d" r.heap_high_water;
    f "wall time          %.4fs" r.total_wall;
    f "  deliver          %d dispatches, ~%.4fs" r.deliver_count r.deliver_wall;
    f "  timer            %d dispatches, ~%.4fs" r.timer_count r.timer_wall;
    f "  control          %d dispatches, ~%.4fs" r.control_count r.control_wall;
  ]
  @ List.map (fun (name, w) -> f "  phase %-10s %.4fs" name w) r.phases
