type t = {
  n : int;
  edges : (int * int) array;
  adj : (int * int) array array; (* per node: (neighbor, edge id) by port *)
  diameter : int option; (* closed form recorded by the generator *)
}

let of_edges ?diameter ~n edge_list =
  if n <= 0 then invalid_arg "Graph.of_edges: n must be positive";
  let seen = Hashtbl.create (List.length edge_list) in
  let normalize (u, v) =
    if u = v then invalid_arg "Graph.of_edges: self-loop";
    if u < 0 || v < 0 || u >= n || v >= n then
      invalid_arg "Graph.of_edges: endpoint out of range";
    (min u v, max u v)
  in
  let edges =
    List.map
      (fun e ->
        let e = normalize e in
        if Hashtbl.mem seen e then invalid_arg "Graph.of_edges: duplicate edge";
        Hashtbl.add seen e ();
        e)
      edge_list
    |> Array.of_list
  in
  let deg = Array.make n 0 in
  Array.iter
    (fun (u, v) ->
      deg.(u) <- deg.(u) + 1;
      deg.(v) <- deg.(v) + 1)
    edges;
  let adj = Array.init n (fun v -> Array.make deg.(v) (-1, -1)) in
  let fill = Array.make n 0 in
  Array.iteri
    (fun id (u, v) ->
      adj.(u).(fill.(u)) <- (v, id);
      fill.(u) <- fill.(u) + 1;
      adj.(v).(fill.(v)) <- (u, id);
      fill.(v) <- fill.(v) + 1)
    edges;
  { n; edges; adj; diameter }

let n t = t.n
let known_diameter t = t.diameter
let m t = Array.length t.edges
let edges t = t.edges
let edge_endpoints t id = t.edges.(id)
let degree t v = Array.length t.adj.(v)
let neighbors t v = t.adj.(v)
let neighbor_at_port t v p = fst t.adj.(v).(p)
let edge_at_port t v p = snd t.adj.(v).(p)

let port_of_neighbor t v w =
  let adj = t.adj.(v) in
  let port = ref 0 in
  while !port < Array.length adj && fst adj.(!port) <> w do
    incr port
  done;
  if !port = Array.length adj then raise Not_found;
  !port

let reverse_ports t =
  (* Each edge's port at each end, its lower endpoint's first. *)
  let at_end = Array.make (2 * Array.length t.edges) 0 in
  for v = 0 to t.n - 1 do
    let adj = t.adj.(v) in
    for p = 0 to Array.length adj - 1 do
      let w, e = adj.(p) in
      at_end.((2 * e) + if v < w then 0 else 1) <- p
    done
  done;
  Array.init t.n (fun v ->
      let adj = t.adj.(v) in
      let rev = Array.make (Array.length adj) 0 in
      for p = 0 to Array.length adj - 1 do
        let w, e = adj.(p) in
        rev.(p) <- at_end.((2 * e) + if w < v then 0 else 1)
      done;
      rev)

let mem_edge t u v =
  Array.exists (fun (w, _) -> w = v) t.adj.(u)

let is_connected t =
  if t.n = 0 then true
  else begin
    let seen = Array.make t.n false in
    let queue = Queue.create () in
    Queue.push 0 queue;
    seen.(0) <- true;
    let count = ref 1 in
    while not (Queue.is_empty queue) do
      let v = Queue.pop queue in
      Array.iter
        (fun (w, _) ->
          if not seen.(w) then begin
            seen.(w) <- true;
            incr count;
            Queue.push w queue
          end)
        t.adj.(v)
    done;
    !count = t.n
  end

let fold_edges f t acc =
  let acc = ref acc in
  Array.iteri (fun id (u, v) -> acc := f id u v !acc) t.edges;
  !acc
