module Prng = Gcs_util.Prng

type spec =
  | Line of int
  | Ring of int
  | Grid of int * int
  | Torus of int * int
  | Complete of int
  | Star of int
  | Binary_tree of int
  | Hypercube of int
  | Random_gnp of int * float
  | Random_geometric of int * float

(* The parameter range of every generator, in one place: a generator
   raises on a value outside it and [spec_of_string] returns it as an
   error, so every spec that parses also builds. *)
let spec_error = function
  | Line n when n < 1 -> Some "line: n must be >= 1"
  | Ring n when n < 3 -> Some "ring: n must be >= 3"
  | Grid (r, c) when r < 1 || c < 1 -> Some "grid: dims must be >= 1"
  | Torus (r, c) when r < 3 || c < 3 -> Some "torus: dims must be >= 3"
  | Complete n when n < 2 -> Some "complete: n must be >= 2"
  | Star n when n < 2 -> Some "star: n must be >= 2"
  | Binary_tree d when d < 0 -> Some "binary_tree: depth must be >= 0"
  | Hypercube d when d < 1 -> Some "hypercube: dim must be >= 1"
  | Random_gnp (n, _) when n < 2 -> Some "random_gnp: n must be >= 2"
  | Random_gnp (_, p) when p < 0. || p > 1. -> Some "random_gnp: p out of range"
  | Random_geometric (n, _) when n < 2 ->
      Some "random_geometric: n must be >= 2"
  | _ -> None

let require spec =
  match spec_error spec with
  | Some msg -> invalid_arg ("Topology." ^ msg)
  | None -> ()

let line n =
  require (Line n);
  Graph.of_edges ~n (List.init (n - 1) (fun i -> (i, i + 1)))

let ring n =
  require (Ring n);
  Graph.of_edges ~diameter:(n / 2) ~n
    (List.init n (fun i -> (i, (i + 1) mod n)))

let grid ~rows ~cols =
  require (Grid (rows, cols));
  let idx r c = (r * cols) + c in
  let edges = ref [] in
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      if c + 1 < cols then edges := (idx r c, idx r (c + 1)) :: !edges;
      if r + 1 < rows then edges := (idx r c, idx (r + 1) c) :: !edges
    done
  done;
  Graph.of_edges ~n:(rows * cols) !edges

let torus ~rows ~cols =
  require (Torus (rows, cols));
  let idx r c = (r * cols) + c in
  let edges = ref [] in
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      edges := (idx r c, idx r ((c + 1) mod cols)) :: !edges;
      edges := (idx r c, idx ((r + 1) mod rows) c) :: !edges
    done
  done;
  Graph.of_edges ~diameter:((rows / 2) + (cols / 2)) ~n:(rows * cols) !edges

let complete n =
  require (Complete n);
  let edges = ref [] in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      edges := (u, v) :: !edges
    done
  done;
  Graph.of_edges ~diameter:1 ~n !edges

let star n =
  require (Star n);
  Graph.of_edges ~n (List.init (n - 1) (fun i -> (0, i + 1)))

let binary_tree ~depth =
  require (Binary_tree depth);
  let n = (1 lsl (depth + 1)) - 1 in
  let edges = ref [] in
  for v = 1 to n - 1 do
    edges := (v, (v - 1) / 2) :: !edges
  done;
  Graph.of_edges ~n !edges

let hypercube ~dim =
  require (Hypercube dim);
  let n = 1 lsl dim in
  let edges = ref [] in
  for v = 0 to n - 1 do
    for b = 0 to dim - 1 do
      let w = v lxor (1 lsl b) in
      if v < w then edges := (v, w) :: !edges
    done
  done;
  Graph.of_edges ~diameter:dim ~n !edges

(* Connect a possibly-disconnected edge set by attaching every non-root
   component to a random node of the already-connected part. *)
let connect ~n ~rng edges =
  let parent = Array.init n (fun i -> i) in
  let rec find i = if parent.(i) = i then i else find parent.(i) in
  let union a b =
    let ra = find a and rb = find b in
    if ra <> rb then parent.(ra) <- rb
  in
  List.iter (fun (u, v) -> union u v) edges;
  let extra = ref [] in
  for v = 1 to n - 1 do
    if find v <> find 0 then begin
      (* Pick a random node already connected to 0 to attach to. *)
      let candidates =
        Array.of_seq
          (Seq.filter (fun w -> find w = find 0) (Seq.init n (fun i -> i)))
      in
      let w = Prng.choice rng candidates in
      extra := (v, w) :: !extra;
      union v w
    end
  done;
  edges @ !extra

let random_gnp ~n ~p ~rng =
  require (Random_gnp (n, p));
  let edges = ref [] in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      if Prng.float rng 1.0 < p then edges := (u, v) :: !edges
    done
  done;
  Graph.of_edges ~n (connect ~n ~rng !edges)

let random_geometric ~n ~radius ~rng =
  require (Random_geometric (n, radius));
  let pos =
    Array.init n (fun _ -> (Prng.float rng 1.0, Prng.float rng 1.0))
  in
  let dist2 (x1, y1) (x2, y2) =
    ((x1 -. x2) *. (x1 -. x2)) +. ((y1 -. y2) *. (y1 -. y2))
  in
  let r2 = radius *. radius in
  let edges = ref [] in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      if dist2 pos.(u) pos.(v) <= r2 then edges := (u, v) :: !edges
    done
  done;
  (Graph.of_edges ~n (connect ~n ~rng !edges), pos)

let build spec ~rng =
  match spec with
  | Line n -> line n
  | Ring n -> ring n
  | Grid (r, c) -> grid ~rows:r ~cols:c
  | Torus (r, c) -> torus ~rows:r ~cols:c
  | Complete n -> complete n
  | Star n -> star n
  | Binary_tree d -> binary_tree ~depth:d
  | Hypercube d -> hypercube ~dim:d
  | Random_gnp (n, p) -> random_gnp ~n ~p ~rng
  | Random_geometric (n, r) -> fst (random_geometric ~n ~radius:r ~rng)

let build_for_seed spec ~seed =
  build spec ~rng:(Prng.create ~seed:(seed lxor 0x5eed))

let spec_name = function
  | Line n -> Printf.sprintf "line:%d" n
  | Ring n -> Printf.sprintf "ring:%d" n
  | Grid (r, c) -> Printf.sprintf "grid:%dx%d" r c
  | Torus (r, c) -> Printf.sprintf "torus:%dx%d" r c
  | Complete n -> Printf.sprintf "complete:%d" n
  | Star n -> Printf.sprintf "star:%d" n
  | Binary_tree d -> Printf.sprintf "btree:%d" d
  | Hypercube d -> Printf.sprintf "hypercube:%d" d
  | Random_gnp (n, p) ->
      Printf.sprintf "gnp:%d:%s" n (Gcs_util.Table.fmt_round_trip p)
  | Random_geometric (n, r) ->
      Printf.sprintf "geometric:%d:%s" n (Gcs_util.Table.fmt_round_trip r)

let parse_spec s =
  let fail () = Error (Printf.sprintf "unrecognized topology %S" s) in
  let int_of s = int_of_string_opt s in
  let float_of s = float_of_string_opt s in
  match String.split_on_char ':' s with
  | [ "line"; n ] -> (
      match int_of n with Some n -> Ok (Line n) | None -> fail ())
  | [ "ring"; n ] -> (
      match int_of n with Some n -> Ok (Ring n) | None -> fail ())
  | [ ("grid" | "torus") as kind; dims ] -> (
      match String.split_on_char 'x' dims with
      | [ r; c ] -> (
          match (int_of r, int_of c) with
          | Some r, Some c ->
              if kind = "grid" then Ok (Grid (r, c)) else Ok (Torus (r, c))
          | _ -> fail ())
      | _ -> fail ())
  | [ "complete"; n ] -> (
      match int_of n with Some n -> Ok (Complete n) | None -> fail ())
  | [ "star"; n ] -> (
      match int_of n with Some n -> Ok (Star n) | None -> fail ())
  | [ "btree"; d ] -> (
      match int_of d with Some d -> Ok (Binary_tree d) | None -> fail ())
  | [ "hypercube"; d ] -> (
      match int_of d with Some d -> Ok (Hypercube d) | None -> fail ())
  | [ "gnp"; n; p ] -> (
      match (int_of n, float_of p) with
      | Some n, Some p -> Ok (Random_gnp (n, p))
      | _ -> fail ())
  | [ "geometric"; n; r ] -> (
      match (int_of n, float_of r) with
      | Some n, Some r -> Ok (Random_geometric (n, r))
      | _ -> fail ())
  | _ -> fail ()

let spec_of_string s =
  Result.bind (parse_spec s) (fun spec ->
      match spec_error spec with
      | None -> Ok spec
      | Some msg -> Error (Printf.sprintf "invalid topology %S: %s" s msg))
