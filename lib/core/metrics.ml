module Graph = Gcs_graph.Graph
module Shortest_path = Gcs_graph.Shortest_path

type sample = { time : float; values : float array }

let global_skew values =
  let lo = Array.fold_left Float.min infinity values in
  let hi = Array.fold_left Float.max neg_infinity values in
  hi -. lo

let local_skew g values =
  Array.fold_left
    (fun acc (u, v) -> Float.max acc (Float.abs (values.(u) -. values.(v))))
    0. (Graph.edges g)

let local_skew_edges g values =
  Array.map
    (fun (u, v) -> Float.abs (values.(u) -. values.(v)))
    (Graph.edges g)

let skew_on_edges g edge_ids values =
  let ends = Graph.edges g in
  List.fold_left
    (fun acc e ->
      let u, v = ends.(e) in
      Float.max acc (Float.abs (values.(u) -. values.(v))))
    0. edge_ids

let real_time_skew ~time values =
  Array.fold_left (fun acc v -> Float.max acc (Float.abs (v -. time))) 0. values

let global_skew_alive ~alive values =
  let lo = ref infinity and hi = ref neg_infinity in
  Array.iteri
    (fun v x ->
      if alive v then begin
        if x < !lo then lo := x;
        if x > !hi then hi := x
      end)
    values;
  if !hi < !lo then 0. else !hi -. !lo

let local_skew_alive g ~alive values =
  Array.fold_left
    (fun acc (u, v) ->
      if alive u && alive v then
        Float.max acc (Float.abs (values.(u) -. values.(v)))
      else acc)
    0. (Graph.edges g)

type summary = {
  max_global : float;
  max_local : float;
  mean_local : float;
  p99_local : float;
  final_global : float;
  final_local : float;
  samples_used : int;
}

let qualifying_opt samples ~after =
  let q = Array.of_list (List.filter (fun s -> s.time >= after)
                           (Array.to_list samples)) in
  if Array.length q = 0 then None else Some q

let qualifying samples ~after =
  match qualifying_opt samples ~after with
  | Some q -> q
  | None -> invalid_arg "Metrics.summarize: no samples after warm-up"

let summarize_qualifying ~alive g q =
  let globals = Array.map (fun s -> global_skew_alive ~alive s.values) q in
  let locals = Array.map (fun s -> local_skew_alive g ~alive s.values) q in
  let last = q.(Array.length q - 1) in
  {
    max_global = Gcs_util.Stats.max globals;
    max_local = Gcs_util.Stats.max locals;
    mean_local = Gcs_util.Stats.mean locals;
    p99_local = Gcs_util.Stats.percentile locals 99.;
    final_global = global_skew_alive ~alive last.values;
    final_local = local_skew_alive g ~alive last.values;
    samples_used = Array.length q;
  }

let summarize ?(alive = fun _ -> true) g samples ~after =
  summarize_qualifying ~alive g (qualifying samples ~after)

let summarize_opt ?(alive = fun _ -> true) g samples ~after =
  Option.map (summarize_qualifying ~alive g) (qualifying_opt samples ~after)

(* One BFS source [v] at a time: each vector's gap between [v] and every
   higher-indexed node is folded into the slot of their hop distance, so
   memory is O(n) plus O(D) per vector and no distance matrix is ever
   built. A gap enters a slot only if it is larger ([>]), so a NaN gap
   never does. *)
let gradient_profiles g vectors =
  let diameter = Shortest_path.diameter g in
  let profiles = Array.map (fun _ -> Array.make diameter 0.) vectors in
  let n = Graph.n g in
  Shortest_path.iter_bfs g (fun v dist ->
      Array.iteri
        (fun i values ->
          let profile = profiles.(i) and x = values.(v) in
          for w = v + 1 to n - 1 do
            let d = Array.unsafe_get dist w - 1 in
            let s = Float.abs (x -. values.(w)) in
            if s > Array.unsafe_get profile d then Array.unsafe_set profile d s
          done)
        vectors);
  profiles

let max_gradient_profile g samples ~after =
  let profiles =
    gradient_profiles g
      (Array.map (fun s -> s.values) (qualifying samples ~after))
  in
  Array.init (Array.length profiles.(0)) (fun d ->
      Array.fold_left (fun acc p -> Float.max acc p.(d)) 0. profiles)
