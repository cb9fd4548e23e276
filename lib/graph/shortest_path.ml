module Heap = Gcs_util.Scheduler

(* One BFS from [src] into caller-owned buffers, so repeated passes
   allocate nothing. [order] receives the reached nodes in visiting order,
   hence sorted by distance; the result is how many were reached. *)
let bfs_into g ~src ~dist ~order =
  Array.fill dist 0 (Array.length dist) max_int;
  dist.(src) <- 0;
  order.(0) <- src;
  let head = ref 0 and tail = ref 1 in
  while !head < !tail do
    let v = order.(!head) in
    incr head;
    let dv = dist.(v) + 1 in
    let adj = Graph.neighbors g v in
    for p = 0 to Array.length adj - 1 do
      let w = fst adj.(p) in
      if dist.(w) = max_int then begin
        dist.(w) <- dv;
        order.(!tail) <- w;
        incr tail
      end
    done
  done;
  !tail

let bfs g ~src =
  let n = Graph.n g in
  let dist = Array.make n max_int in
  ignore (bfs_into g ~src ~dist ~order:(Array.make n 0));
  dist

let all_pairs g = Array.init (Graph.n g) (fun v -> bfs g ~src:v)

let iter_bfs g f =
  let n = Graph.n g in
  let dist = Array.make n max_int and order = Array.make n 0 in
  for v = 0 to n - 1 do
    ignore (bfs_into g ~src:v ~dist ~order);
    f v dist
  done

let disconnected () = invalid_arg "Shortest_path: disconnected graph"

let eccentricity g v =
  let dist = bfs g ~src:v in
  Array.fold_left
    (fun acc d -> if d = max_int then disconnected () else max acc d)
    0 dist

(* Exact diameter by iFUB (Crescenzi, Grossi, Habib, Lanzi, Marino, "On
   computing the diameter of real-world undirected graphs", TCS 2013).

   Sweeps first: two double sweeps (BFS from a start, from the node
   farthest from it, and from the node farthest from that) give a lower
   bound [lb], the largest eccentricity seen. The first starts at a node of
   maximum degree, the second at the node that minimises its largest
   distance to the nodes swept so far, and the node that does so after both
   is the centre [u]. Then the levels F_i of a BFS from [u], farthest first:
   two nodes at level <= i are at most 2i apart, so once [lb >= 2i] no
   remaining node can raise [lb] and it is the diameter; otherwise the
   eccentricity of every node in F_i is folded into [lb]. The stop is tested
   before a level is expanded, so a tree's centre stops at once. *)
let ifub g =
  let n = Graph.n g in
  let dist = Array.make n max_int and order = Array.make n 0 in
  (* [far.(v)]: the largest distance from [v] to a swept node, a lower bound
     on the eccentricity of [v]. *)
  let far = Array.make n 0 in
  let swept = Array.make n false in
  let lb = ref 0 in
  (* BFS from [src], folded into [lb], [far] and [swept]. Returns the last
     node reached, one farthest from [src]. *)
  let sweep src =
    if bfs_into g ~src ~dist ~order < n then disconnected ();
    swept.(src) <- true;
    let last = order.(n - 1) in
    lb := max !lb dist.(last);
    for v = 0 to n - 1 do
      if dist.(v) > far.(v) then far.(v) <- dist.(v)
    done;
    last
  in
  let double_sweep start =
    let a = sweep start in
    let b = sweep a in
    ignore (sweep b)
  in
  let argmin key =
    let best = ref 0 in
    for v = 1 to n - 1 do
      if key v < key !best then best := v
    done;
    !best
  in
  double_sweep (argmin (fun v -> -Graph.degree g v));
  double_sweep (argmin (Array.get far));
  let u = argmin (Array.get far) in
  ignore (sweep u);
  let dist_u = Array.copy dist and order_u = Array.copy order in
  let next = ref (n - 1) and level = ref dist_u.(order_u.(n - 1)) in
  while !lb < 2 * !level do
    while !next >= 0 && dist_u.(order_u.(!next)) = !level do
      let x = order_u.(!next) in
      if not swept.(x) then ignore (sweep x);
      decr next
    done;
    decr level
  done;
  !lb

let diameter g =
  match Graph.known_diameter g with Some d -> d | None -> ifub g

let dijkstra g ~weights ~src =
  Array.iter
    (fun w ->
      if w < 0. then invalid_arg "Shortest_path.dijkstra: negative weight")
    weights;
  let n = Graph.n g in
  let dist = Array.make n infinity in
  let heap = Heap.create () in
  (* Insertion order breaks priority ties, so pops are deterministic. *)
  let seq = ref 0 in
  let push prio v =
    Heap.push heap ~prio ~seq:!seq v;
    incr seq
  in
  dist.(src) <- 0.;
  push 0. src;
  while not (Heap.is_empty heap) do
    let d = Heap.min_prio heap in
    let v = Heap.pop_min heap in
    if d <= dist.(v) then
      Array.iter
        (fun (w, e) ->
          let nd = d +. weights.(e) in
          if nd < dist.(w) then begin
            dist.(w) <- nd;
            push nd w
          end)
        (Graph.neighbors g v)
  done;
  dist

let weighted_diameter g ~weights =
  let best = ref 0. in
  for v = 0 to Graph.n g - 1 do
    let dist = dijkstra g ~weights ~src:v in
    Array.iter
      (fun d -> if Float.is_finite d then best := Float.max !best d)
      dist
  done;
  !best

let bellman_ford ~n ~arcs ~src =
  let dist = Array.make n infinity in
  dist.(src) <- 0.;
  let changed = ref true in
  let rounds = ref 0 in
  while !changed && !rounds < n do
    changed := false;
    incr rounds;
    Array.iter
      (fun (u, v, w) ->
        if Float.is_finite dist.(u) && dist.(u) +. w < dist.(v) then begin
          dist.(v) <- dist.(u) +. w;
          changed := true
        end)
      arcs
  done;
  if !changed then Error () else Ok dist

let floyd_warshall g ~weights =
  let n = Graph.n g in
  let dist = Array.make_matrix n n infinity in
  for v = 0 to n - 1 do
    dist.(v).(v) <- 0.
  done;
  Array.iteri
    (fun id (u, v) ->
      dist.(u).(v) <- Float.min dist.(u).(v) weights.(id);
      dist.(v).(u) <- Float.min dist.(v).(u) weights.(id))
    (Graph.edges g);
  for k = 0 to n - 1 do
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        let via = dist.(i).(k) +. dist.(k).(j) in
        if via < dist.(i).(j) then dist.(i).(j) <- via
      done
    done
  done;
  dist
