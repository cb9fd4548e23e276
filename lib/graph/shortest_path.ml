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

let iter_bfs g f =
  let n = Graph.n g in
  let dist = Array.make n max_int and order = Array.make n 0 in
  for v = 0 to n - 1 do
    ignore (bfs_into g ~src:v ~dist ~order);
    f v dist
  done

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
    if bfs_into g ~src ~dist ~order < n then
      invalid_arg "Shortest_path: disconnected graph";
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
