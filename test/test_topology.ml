module Graph = Gcs_graph.Graph
module Topology = Gcs_graph.Topology
module Shortest_path = Gcs_graph.Shortest_path
module Prng = Gcs_util.Prng

let test_line () =
  let g = Topology.line 5 in
  Alcotest.(check int) "n" 5 (Graph.n g);
  Alcotest.(check int) "m" 4 (Graph.m g);
  Alcotest.(check int) "diameter" 4 (Shortest_path.diameter g);
  Alcotest.(check int) "endpoint degree" 1 (Graph.degree g 0);
  Alcotest.(check int) "middle degree" 2 (Graph.degree g 2)

let test_single_node_line () =
  let g = Topology.line 1 in
  Alcotest.(check int) "n" 1 (Graph.n g);
  Alcotest.(check int) "m" 0 (Graph.m g)

let test_ring () =
  let g = Topology.ring 6 in
  Alcotest.(check int) "m" 6 (Graph.m g);
  Alcotest.(check int) "diameter" 3 (Shortest_path.diameter g);
  for v = 0 to 5 do
    Alcotest.(check int) "regular" 2 (Graph.degree g v)
  done

let test_grid () =
  let g = Topology.grid ~rows:3 ~cols:4 in
  Alcotest.(check int) "n" 12 (Graph.n g);
  (* edges: 3 * 3 horizontal rows + 2 * 4 vertical = 9 + 8 *)
  Alcotest.(check int) "m" 17 (Graph.m g);
  Alcotest.(check int) "diameter" 5 (Shortest_path.diameter g)

let test_torus () =
  let g = Topology.torus ~rows:4 ~cols:4 in
  Alcotest.(check int) "n" 16 (Graph.n g);
  Alcotest.(check int) "m" 32 (Graph.m g);
  for v = 0 to 15 do
    Alcotest.(check int) "4-regular" 4 (Graph.degree g v)
  done;
  Alcotest.(check int) "diameter" 4 (Shortest_path.diameter g)

let test_complete () =
  let g = Topology.complete 6 in
  Alcotest.(check int) "m" 15 (Graph.m g);
  Alcotest.(check int) "diameter" 1 (Shortest_path.diameter g)

let test_star () =
  let g = Topology.star 7 in
  Alcotest.(check int) "m" 6 (Graph.m g);
  Alcotest.(check int) "center degree" 6 (Graph.degree g 0);
  Alcotest.(check int) "diameter" 2 (Shortest_path.diameter g)

let test_binary_tree () =
  let g = Topology.binary_tree ~depth:3 in
  Alcotest.(check int) "n" 15 (Graph.n g);
  Alcotest.(check int) "m" 14 (Graph.m g);
  Alcotest.(check int) "diameter" 6 (Shortest_path.diameter g)

let test_hypercube () =
  let g = Topology.hypercube ~dim:4 in
  Alcotest.(check int) "n" 16 (Graph.n g);
  Alcotest.(check int) "m" 32 (Graph.m g);
  Alcotest.(check int) "diameter" 4 (Shortest_path.diameter g)

let test_random_gnp_connected =
  QCheck.Test.make ~name:"gnp post-processing yields connected graphs"
    ~count:50
    QCheck.(pair (int_range 2 40) (float_range 0. 0.3))
    (fun (n, p) ->
      let rng = Prng.create ~seed:(n + int_of_float (p *. 1000.)) in
      Graph.is_connected (Topology.random_gnp ~n ~p ~rng))

let test_random_geometric_connected =
  QCheck.Test.make ~name:"geometric graphs are connected" ~count:30
    QCheck.(int_range 2 40)
    (fun n ->
      let rng = Prng.create ~seed:n in
      let g, pos = Topology.random_geometric ~n ~radius:0.2 ~rng in
      Graph.is_connected g && Array.length pos = n)

let test_spec_roundtrip () =
  let specs =
    [
      Topology.Line 8;
      Topology.Ring 9;
      Topology.Grid (3, 4);
      Topology.Torus (4, 5);
      Topology.Complete 5;
      Topology.Star 6;
      Topology.Binary_tree 3;
      Topology.Hypercube 3;
      Topology.Random_gnp (10, 0.25);
      Topology.Random_geometric (10, 0.3);
    ]
  in
  List.iter
    (fun spec ->
      let name = Topology.spec_name spec in
      match Topology.spec_of_string name with
      | Ok parsed ->
          Alcotest.(check string) ("roundtrip " ^ name) name
            (Topology.spec_name parsed)
      | Error e -> Alcotest.fail e)
    specs

let test_spec_rejects_garbage () =
  List.iter
    (fun s ->
      match Topology.spec_of_string s with
      | Ok _ -> Alcotest.fail ("accepted garbage: " ^ s)
      | Error _ -> ())
    [ "nope"; "line"; "line:x"; "grid:3"; "gnp:10"; "" ]

(* The parser accepts exactly the parameters the generators accept: each
   degenerate spec is an [Error] from [spec_of_string] and raises from
   [build], and each boundary value on the other side parses and builds. *)
let test_spec_rejects_degenerate () =
  let rng = Prng.create ~seed:1 in
  List.iter
    (fun (s, spec, valid) ->
      let parsed = Topology.spec_of_string s in
      let built =
        match Topology.build spec ~rng with
        | _ -> true
        | exception Invalid_argument _ -> false
      in
      Alcotest.(check bool) (s ^ " parses") valid (Result.is_ok parsed);
      Alcotest.(check bool) (s ^ " builds") valid built;
      if valid then
        Alcotest.(check bool) (s ^ " parses to its spec") true
          (parsed = Ok spec))
    Topology.
      [
        ("line:0", Line 0, false);
        ("line:1", Line 1, true);
        ("ring:1", Ring 1, false);
        ("ring:2", Ring 2, false);
        ("ring:3", Ring 3, true);
        ("grid:0x3", Grid (0, 3), false);
        ("grid:3x0", Grid (3, 0), false);
        ("grid:1x1", Grid (1, 1), true);
        ("torus:2x5", Torus (2, 5), false);
        ("torus:5x2", Torus (5, 2), false);
        ("torus:3x3", Torus (3, 3), true);
        ("complete:1", Complete 1, false);
        ("complete:2", Complete 2, true);
        ("star:1", Star 1, false);
        ("star:2", Star 2, true);
        ("btree:-1", Binary_tree (-1), false);
        ("btree:0", Binary_tree 0, true);
        ("hypercube:0", Hypercube 0, false);
        ("hypercube:1", Hypercube 1, true);
        ("gnp:1:0.5", Random_gnp (1, 0.5), false);
        ("gnp:10:-0.1", Random_gnp (10, -0.1), false);
        ("gnp:10:1.5", Random_gnp (10, 1.5), false);
        ("gnp:2:1", Random_gnp (2, 1.), true);
        ("geometric:1:0.5", Random_geometric (1, 0.5), false);
        ("geometric:2:0.5", Random_geometric (2, 0.5), true);
      ]

let test_build_matches_direct () =
  let rng = Prng.create ~seed:1 in
  let g = Topology.build (Topology.Ring 7) ~rng in
  Alcotest.(check int) "build ring" 7 (Graph.n g)

let suite =
  [
    Alcotest.test_case "line" `Quick test_line;
    Alcotest.test_case "line n=1" `Quick test_single_node_line;
    Alcotest.test_case "ring" `Quick test_ring;
    Alcotest.test_case "grid" `Quick test_grid;
    Alcotest.test_case "torus" `Quick test_torus;
    Alcotest.test_case "complete" `Quick test_complete;
    Alcotest.test_case "star" `Quick test_star;
    Alcotest.test_case "binary tree" `Quick test_binary_tree;
    Alcotest.test_case "hypercube" `Quick test_hypercube;
    Alcotest.test_case "spec roundtrip" `Quick test_spec_roundtrip;
    Alcotest.test_case "spec rejects garbage" `Quick test_spec_rejects_garbage;
    Alcotest.test_case "spec rejects degenerate" `Quick
      test_spec_rejects_degenerate;
    Alcotest.test_case "build" `Quick test_build_matches_direct;
    QCheck_alcotest.to_alcotest test_random_gnp_connected;
    QCheck_alcotest.to_alcotest test_random_geometric_connected;
  ]
