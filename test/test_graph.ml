module Graph = Gcs_graph.Graph

let test_basic_construction () =
  let g = Graph.of_edges ~n:4 [ (0, 1); (1, 2); (2, 3); (3, 0) ] in
  Alcotest.(check int) "n" 4 (Graph.n g);
  Alcotest.(check int) "m" 4 (Graph.m g);
  Alcotest.(check int) "degree" 2 (Graph.degree g 1);
  Alcotest.(check bool) "mem_edge" true (Graph.mem_edge g 0 1);
  Alcotest.(check bool) "mem_edge symmetric" true (Graph.mem_edge g 1 0);
  Alcotest.(check bool) "non-edge" false (Graph.mem_edge g 0 2)

let test_rejects_self_loop () =
  Alcotest.check_raises "self-loop"
    (Invalid_argument "Graph.of_edges: self-loop") (fun () ->
      ignore (Graph.of_edges ~n:3 [ (1, 1) ]))

let test_rejects_duplicate () =
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Graph.of_edges: duplicate edge") (fun () ->
      ignore (Graph.of_edges ~n:3 [ (0, 1); (1, 0) ]))

let test_rejects_out_of_range () =
  Alcotest.check_raises "range"
    (Invalid_argument "Graph.of_edges: endpoint out of range") (fun () ->
      ignore (Graph.of_edges ~n:3 [ (0, 3) ]))

let test_ports_roundtrip () =
  let g = Graph.of_edges ~n:5 [ (0, 1); (0, 2); (0, 3); (0, 4) ] in
  for p = 0 to Graph.degree g 0 - 1 do
    let w = Graph.neighbor_at_port g 0 p in
    Alcotest.(check int) "port_of_neighbor inverts neighbor_at_port" p
      (Graph.port_of_neighbor g 0 w)
  done

let test_port_of_missing_neighbor () =
  let g = Graph.of_edges ~n:3 [ (0, 1) ] in
  Alcotest.check_raises "not adjacent" Not_found (fun () ->
      ignore (Graph.port_of_neighbor g 0 2))

let test_edge_ids_consistent () =
  let g = Graph.of_edges ~n:4 [ (0, 1); (1, 2); (2, 3) ] in
  Array.iteri
    (fun id (u, v) ->
      Alcotest.(check (pair int int)) "edge_endpoints" (u, v)
        (Graph.edge_endpoints g id);
      let p = Graph.port_of_neighbor g u v in
      Alcotest.(check int) "edge_at_port matches id" id
        (Graph.edge_at_port g u p))
    (Graph.edges g)

let test_connectivity () =
  let connected = Graph.of_edges ~n:3 [ (0, 1); (1, 2) ] in
  let disconnected = Graph.of_edges ~n:4 [ (0, 1); (2, 3) ] in
  Alcotest.(check bool) "connected" true (Graph.is_connected connected);
  Alcotest.(check bool) "disconnected" false (Graph.is_connected disconnected)

let test_fold_edges () =
  let g = Graph.of_edges ~n:4 [ (0, 1); (1, 2); (2, 3) ] in
  let count = Graph.fold_edges (fun _ _ _ acc -> acc + 1) g 0 in
  Alcotest.(check int) "fold visits all edges" 3 count

let prop_degree_sum =
  QCheck.Test.make ~name:"sum of degrees = 2m" ~count:100
    QCheck.(int_range 2 30)
    (fun n ->
      let rng = Gcs_util.Prng.create ~seed:n in
      let g = Gcs_graph.Topology.random_gnp ~n ~p:0.3 ~rng in
      let total = ref 0 in
      for v = 0 to n - 1 do
        total := !total + Graph.degree g v
      done;
      !total = 2 * Graph.m g)

(* The reverse-port column the engine sends through is
   [port_of_neighbor], on every family of graph the runs use. *)
let prop_reverse_ports =
  QCheck.Test.make ~name:"reverse_ports = port_of_neighbor" ~count:200
    QCheck.(triple (int_range 0 3) (int_range 2 30) small_nat)
    (fun (family, n, seed) ->
      let module T = Gcs_graph.Topology in
      let rng = Gcs_util.Prng.create ~seed in
      let g =
        match family with
        | 0 -> T.random_gnp ~n ~p:0.3 ~rng
        | 1 -> fst (T.random_geometric ~n ~radius:0.35 ~rng)
        | 2 -> T.grid ~rows:(1 + (n / 6)) ~cols:(2 + (n mod 6))
        | _ -> T.complete n
      in
      let rev = Graph.reverse_ports g in
      Array.length rev = Graph.n g
      && List.for_all
           (fun v ->
             Array.length rev.(v) = Graph.degree g v
             && List.for_all
                  (fun p ->
                    rev.(v).(p)
                    = Graph.port_of_neighbor g (Graph.neighbor_at_port g v p) v)
                  (List.init (Graph.degree g v) Fun.id))
           (List.init (Graph.n g) Fun.id))

let suite =
  [
    Alcotest.test_case "construction" `Quick test_basic_construction;
    Alcotest.test_case "rejects self-loop" `Quick test_rejects_self_loop;
    Alcotest.test_case "rejects duplicate" `Quick test_rejects_duplicate;
    Alcotest.test_case "rejects out-of-range" `Quick test_rejects_out_of_range;
    Alcotest.test_case "ports roundtrip" `Quick test_ports_roundtrip;
    Alcotest.test_case "missing neighbor" `Quick test_port_of_missing_neighbor;
    Alcotest.test_case "edge ids" `Quick test_edge_ids_consistent;
    Alcotest.test_case "connectivity" `Quick test_connectivity;
    Alcotest.test_case "fold_edges" `Quick test_fold_edges;
    QCheck_alcotest.to_alcotest prop_degree_sum;
    QCheck_alcotest.to_alcotest prop_reverse_ports;
  ]
