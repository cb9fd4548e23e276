module Graph = Gcs_graph.Graph
module Topology = Gcs_graph.Topology
module Sp = Gcs_graph.Shortest_path
module Prng = Gcs_util.Prng

let test_bfs_line () =
  let g = Topology.line 5 in
  Alcotest.(check (array int)) "distances from 0" [| 0; 1; 2; 3; 4 |]
    (Sp.bfs g ~src:0);
  Alcotest.(check (array int)) "distances from middle" [| 2; 1; 0; 1; 2 |]
    (Sp.bfs g ~src:2)

let test_bfs_unreachable () =
  let g = Graph.of_edges ~n:3 [ (0, 1) ] in
  let d = Sp.bfs g ~src:0 in
  Alcotest.(check int) "unreachable is max_int" max_int d.(2)

let test_diameter_families () =
  Alcotest.(check int) "line" 9 (Sp.diameter (Topology.line 10));
  Alcotest.(check int) "ring even" 5 (Sp.diameter (Topology.ring 10));
  Alcotest.(check int) "ring odd" 4 (Sp.diameter (Topology.ring 9));
  Alcotest.(check int) "star" 2 (Sp.diameter (Topology.star 5))

let test_diameter_disconnected () =
  let raises name g =
    Alcotest.check_raises name
      (Invalid_argument "Shortest_path: disconnected graph") (fun () ->
        ignore (Sp.diameter g))
  in
  raises "two equal halves" (Graph.of_edges ~n:4 [ (0, 1); (2, 3) ]);
  (* The first sweep starts at a node of maximum degree: the centre of the
     4-node star, in the smaller component, so it never sees the path. *)
  raises "first sweep in the smaller component"
    (Graph.of_edges ~n:10
       [ (0, 1); (0, 2); (0, 3); (4, 5); (5, 6); (6, 7); (7, 8); (8, 9) ]);
  raises "isolated node" (Graph.of_edges ~n:5 [ (0, 1); (0, 2); (0, 3) ])

(* Reference distances, by the definitions: the largest hop distance from
   one node, and weighted distances between all pairs by Floyd-Warshall. *)
let eccentricity g v =
  let dist = Sp.bfs g ~src:v in
  Array.fold_left
    (fun acc d ->
      if d = max_int then invalid_arg "Shortest_path: disconnected graph"
      else max acc d)
    0 dist

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

let all_pairs g = Array.init (Graph.n g) (fun v -> Sp.bfs g ~src:v)

(* The all-source definition every fast path must reproduce. *)
let reference_diameter g =
  let best = ref 0 in
  for v = 0 to Graph.n g - 1 do
    best := max !best (eccentricity g v)
  done;
  !best

(* The same graph without the closed form its generator recorded, so that
   [Sp.diameter] has to search it. *)
let strip g = Graph.of_edges ~n:(Graph.n g) (Array.to_list (Graph.edges g))

let diameter_matches g =
  let d = reference_diameter g in
  Sp.diameter g = d && Sp.diameter (strip g) = d

let spec_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun n -> Topology.Line n) (int_range 1 60);
        map (fun n -> Topology.Ring n) (int_range 3 60);
        map2
          (fun r c -> Topology.Grid (r, c))
          (int_range 1 10) (int_range 1 10);
        map2 (fun r c -> Topology.Torus (r, c)) (int_range 3 9) (int_range 3 9);
        map (fun n -> Topology.Complete n) (int_range 2 16);
        map (fun n -> Topology.Star n) (int_range 2 40);
        map (fun d -> Topology.Binary_tree d) (int_range 0 7);
        map (fun d -> Topology.Hypercube d) (int_range 1 7);
        map2
          (fun n p -> Topology.Random_gnp (n, p))
          (int_range 2 80) (float_range 0.005 0.95);
        map2
          (fun n r -> Topology.Random_geometric (n, r))
          (int_range 2 80) (float_range 0.05 0.4);
      ])

let test_diameter_every_family =
  QCheck.Test.make ~name:"diameter = all-source reference, every family"
    ~count:300
    (QCheck.make
       ~print:(fun (spec, seed) ->
         Printf.sprintf "%s seed %d" (Topology.spec_name spec) seed)
       QCheck.Gen.(pair spec_gen small_nat))
    (fun (spec, seed) ->
      diameter_matches (Topology.build spec ~rng:(Prng.create ~seed)))

let test_diameter_random_trees =
  QCheck.Test.make ~name:"diameter = all-source reference, random trees"
    ~count:200
    QCheck.(pair (int_range 1 120) small_nat)
    (fun (n, seed) ->
      let rng = Prng.create ~seed in
      let g =
        Graph.of_edges ~n
          (List.init (n - 1) (fun i -> (i + 1, Prng.int rng (i + 1))))
      in
      diameter_matches g)

let test_diameter_edge_cases () =
  List.iter
    (fun name ->
      match Topology.spec_of_string name with
      | Error e -> Alcotest.fail e
      | Ok spec ->
          Alcotest.(check bool) name true
            (diameter_matches (Topology.build spec ~rng:(Prng.create ~seed:1))))
    [ "grid:1x1"; "grid:1x9"; "grid:9x1"; "line:1"; "line:2"; "star:2";
      "btree:0"; "hypercube:1"; "ring:3"; "torus:3x3"; "complete:2" ]

(* A complete graph less one edge has diameter 2 through a single pair:
   the sweeps can miss it, so the level stop must not fire one short. *)
let test_diameter_near_complete () =
  for n = 3 to 7 do
    for u = 0 to n - 1 do
      for v = u + 1 to n - 1 do
        let edges =
          List.filter (( <> ) (u, v))
            (Array.to_list (Graph.edges (Topology.complete n)))
        in
        Alcotest.(check int)
          (Printf.sprintf "K%d less (%d,%d)" n u v)
          2
          (Sp.diameter (Graph.of_edges ~n edges))
      done
    done
  done

let test_closed_forms () =
  let check name g =
    Alcotest.(check (option int)) name (Some (reference_diameter g))
      (Graph.known_diameter g)
  in
  for n = 3 to 24 do
    check (Printf.sprintf "ring:%d" n) (Topology.ring n)
  done;
  for r = 3 to 8 do
    for c = 3 to 8 do
      check (Printf.sprintf "torus:%dx%d" r c) (Topology.torus ~rows:r ~cols:c)
    done
  done;
  for d = 1 to 8 do
    check (Printf.sprintf "hypercube:%d" d) (Topology.hypercube ~dim:d)
  done;
  for n = 2 to 16 do
    check (Printf.sprintf "complete:%d" n) (Topology.complete n)
  done;
  Alcotest.(check (option int)) "grids record nothing" None
    (Graph.known_diameter (Topology.grid ~rows:4 ~cols:5))

let test_bfs_matches_floyd_warshall =
  QCheck.Test.make ~name:"bfs all-pairs = floyd-warshall with unit weights"
    ~count:50
    QCheck.(int_range 2 20)
    (fun n ->
      let rng = Prng.create ~seed:(n * 31) in
      let g = Topology.random_gnp ~n ~p:0.35 ~rng in
      let unit_weights = Array.make (Graph.m g) 1. in
      let fw = floyd_warshall g ~weights:unit_weights in
      let ap = all_pairs g in
      let ok = ref true in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          let bfs_d = ap.(i).(j) in
          let fw_d = fw.(i).(j) in
          if bfs_d = max_int then ok := !ok && not (Float.is_finite fw_d)
          else ok := !ok && Float.abs (fw_d -. float_of_int bfs_d) < 1e-9
        done
      done;
      !ok)

let test_triangle_inequality =
  QCheck.Test.make ~name:"hop distances satisfy the triangle inequality"
    ~count:50
    QCheck.(int_range 3 20)
    (fun n ->
      let rng = Prng.create ~seed:(n * 17) in
      let g = Topology.random_gnp ~n ~p:0.4 ~rng in
      let ap = all_pairs g in
      let ok = ref true in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          for k = 0 to n - 1 do
            if ap.(i).(j) < max_int && ap.(j).(k) < max_int then
              ok := !ok && ap.(i).(k) <= ap.(i).(j) + ap.(j).(k)
          done
        done
      done;
      !ok)

let test_eccentricity () =
  let g = Topology.line 5 in
  Alcotest.(check int) "endpoint" 4 (eccentricity g 0);
  Alcotest.(check int) "center" 2 (eccentricity g 2)

let suite =
  [
    Alcotest.test_case "bfs line" `Quick test_bfs_line;
    Alcotest.test_case "bfs unreachable" `Quick test_bfs_unreachable;
    Alcotest.test_case "diameters" `Quick test_diameter_families;
    Alcotest.test_case "diameter disconnected" `Quick test_diameter_disconnected;
    Alcotest.test_case "diameter edge cases" `Quick test_diameter_edge_cases;
    Alcotest.test_case "diameter closed forms" `Quick test_closed_forms;
    Alcotest.test_case "diameter near-complete" `Quick test_diameter_near_complete;
    Alcotest.test_case "eccentricity" `Quick test_eccentricity;
    QCheck_alcotest.to_alcotest test_bfs_matches_floyd_warshall;
    QCheck_alcotest.to_alcotest test_triangle_inequality;
    QCheck_alcotest.to_alcotest test_diameter_every_family;
    QCheck_alcotest.to_alcotest test_diameter_random_trees;
  ]
