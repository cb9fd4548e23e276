module Metrics = Gcs_core.Metrics
module Graph = Gcs_graph.Graph
module Topology = Gcs_graph.Topology
module Sp = Gcs_graph.Shortest_path
module Prng = Gcs_util.Prng
module Runner = Gcs_core.Runner
module Capture = Gcs_obs.Capture
module Series = Gcs_obs.Series

let checkf = Alcotest.(check (float 1e-9))

let test_global_skew () =
  checkf "spread" 7. (Metrics.global_skew [| 3.; 10.; 5. |]);
  checkf "uniform" 0. (Metrics.global_skew [| 4.; 4. |])

let test_local_skew () =
  let g = Topology.line 3 in
  (* edges 0-1 and 1-2 *)
  checkf "max edge gap" 5. (Metrics.local_skew g [| 0.; 5.; 4. |]);
  let per_edge = Metrics.local_skew_edges g [| 0.; 5.; 4. |] in
  Alcotest.(check (array (float 1e-9))) "per edge" [| 5.; 1. |] per_edge

let test_local_le_global =
  QCheck.Test.make ~name:"local skew <= global skew" ~count:200
    QCheck.(pair (int_range 2 20) small_nat)
    (fun (n, seed) ->
      let rng = Prng.create ~seed in
      let g = Topology.random_gnp ~n ~p:0.4 ~rng in
      let values = Array.init n (fun _ -> Prng.uniform rng ~lo:(-10.) ~hi:10.) in
      Metrics.local_skew g values <= Metrics.global_skew values +. 1e-12)

let test_real_time_skew () =
  checkf "max |L - t|" 3. (Metrics.real_time_skew ~time:10. [| 7.; 11.; 10. |])

(* The definition every profile must reproduce bit for bit: over every
   ordered pair of distinct nodes, the gap enters the slot of their hop
   distance when it is larger, so a NaN gap never does. *)
let reference_profile g values =
  let n = Graph.n g in
  let dist = Array.init n (fun v -> Sp.bfs g ~src:v) in
  let p = Array.make (Array.fold_left (Array.fold_left max) 0 dist) 0. in
  for v = 0 to n - 1 do
    for w = 0 to n - 1 do
      if v <> w then begin
        let d = dist.(v).(w) - 1 in
        let s = Float.abs (values.(v) -. values.(w)) in
        if s > p.(d) then p.(d) <- s
      end
    done
  done;
  p

let test_gradient_profile_line () =
  let g = Topology.line 4 in
  (* values 0, 1, 3, 6: distance-1 max gap 3 (2-3), distance-2 max 5 (1-3),
     distance-3 gap 6. *)
  let p = Metrics.gradient_profiles g [| [| 0.; 1.; 3.; 6. |] |] in
  Alcotest.(check (array (array (float 1e-9))))
    "profile" [| [| 3.; 5.; 6. |] |] p

let test_gradient_profile_dominates_local =
  QCheck.Test.make ~name:"profile.(0) = local skew" ~count:100
    QCheck.(pair (int_range 2 15) small_nat)
    (fun (n, seed) ->
      let rng = Prng.create ~seed in
      let g = Topology.random_gnp ~n ~p:0.5 ~rng in
      let values = Array.init n (fun _ -> Prng.uniform rng ~lo:0. ~hi:10.) in
      let p = (Metrics.gradient_profiles g [| values |]).(0) in
      Float.abs (p.(0) -. Metrics.local_skew g values) < 1e-9)

let test_alive_masking () =
  let g = Topology.line 3 in
  let values = [| 0.; 100.; 1. |] in
  checkf "global masked" 1.
    (Metrics.global_skew_alive ~alive:(fun v -> v <> 1) values);
  checkf "local masked (no live-live edges)" 0.
    (Metrics.local_skew_alive g ~alive:(fun v -> v <> 1) values);
  checkf "all dead is zero" 0.
    (Metrics.global_skew_alive ~alive:(fun _ -> false) values)

let test_summarize_alive () =
  let g = Topology.line 3 in
  let samples =
    [| { Metrics.time = 10.; values = [| 0.; 50.; 2. |] } |]
  in
  let s = Metrics.summarize ~alive:(fun v -> v <> 1) g samples ~after:0. in
  checkf "masked max global" 2. s.Metrics.max_global;
  checkf "masked final global" 2. s.Metrics.final_global

let sample t values = { Metrics.time = t; values }

let test_summarize () =
  let g = Topology.line 2 in
  let samples =
    [|
      sample 0. [| 0.; 100. |] (* warm-up junk, must be ignored *);
      sample 10. [| 0.; 1. |];
      sample 20. [| 0.; 3. |];
      sample 30. [| 0.; 2. |];
    |]
  in
  let s = Metrics.summarize g samples ~after:5. in
  Alcotest.(check int) "samples used" 3 s.Metrics.samples_used;
  checkf "max local" 3. s.Metrics.max_local;
  checkf "max global" 3. s.Metrics.max_global;
  checkf "mean local" 2. s.Metrics.mean_local;
  checkf "final local" 2. s.Metrics.final_local

let test_summarize_requires_samples () =
  let g = Topology.line 2 in
  Alcotest.check_raises "empty"
    (Invalid_argument "Metrics.summarize: no samples after warm-up")
    (fun () ->
      ignore (Metrics.summarize g [| sample 0. [| 0.; 0. |] |] ~after:5.))

let test_summarize_opt () =
  let g = Topology.line 2 in
  let samples = [| sample 0. [| 0.; 7. |]; sample 10. [| 0.; 2. |] |] in
  (match Metrics.summarize_opt g samples ~after:5. with
  | Some s -> checkf "post-warm-up summary" 2. s.Metrics.max_global
  | None -> Alcotest.fail "expected a summary");
  match Metrics.summarize_opt g samples ~after:50. with
  | None -> ()
  | Some _ -> Alcotest.fail "expected None when nothing survives warm-up"

let test_max_gradient_profile () =
  let g = Topology.line 3 in
  let samples =
    [| sample 10. [| 0.; 1.; 0. |]; sample 20. [| 0.; 0.; 4. |] |]
  in
  let p = Metrics.max_gradient_profile g samples ~after:0. in
  Alcotest.(check (array (float 1e-9))) "pointwise max" [| 4.; 4. |] p

let random_graph family n rng =
  match family with
  | 0 -> Topology.random_gnp ~n ~p:0.15 ~rng
  | 1 -> fst (Topology.random_geometric ~n ~radius:0.3 ~rng)
  | 2 -> Topology.complete n
  | _ ->
      Graph.of_edges ~n
        (List.init (n - 1) (fun i -> (i + 1, Prng.int rng (i + 1))))

(* Coarse values give ties; the odd non-finite or negative-zero one must be
   skipped or kept exactly as the definition does. An infinity is drawn
   from [infinities]. *)
let random_value ~infinities rng =
  match Prng.int rng 40 with
  | 0 -> Float.nan
  | 1 | 2 -> infinities.(Prng.int rng (Array.length infinities))
  | 3 -> -0.
  | k when k < 20 -> float_of_int (Prng.int rng 5)
  | _ -> Prng.uniform rng ~lo:(-10.) ~hi:10.

let bits = Array.map Int64.bits_of_float

(* The pointwise max of the definition's profile over the qualifying
   samples. *)
let folded_profile g samples ~after =
  let q =
    List.filter (fun s -> s.Metrics.time >= after) (Array.to_list samples)
  in
  List.fold_left
    (fun acc s ->
      Array.map2 Float.max acc (reference_profile g s.Metrics.values))
    (reference_profile g (List.hd q).Metrics.values)
    q

let test_streamed_profile_equivalence =
  QCheck.Test.make ~name:"streamed max_gradient_profile = per-sample fold"
    ~count:200
    QCheck.(triple (int_range 0 3) (int_range 2 40) small_nat)
    (fun (family, n, seed) ->
      let rng = Prng.create ~seed in
      let g = random_graph family n rng in
      let samples =
        Array.init (1 + Prng.int rng 6) (fun i ->
            sample (float_of_int i)
              (Array.init n (fun _ ->
                   random_value ~infinities:[| infinity; neg_infinity |] rng)))
      in
      let after = float_of_int (Prng.int rng (Array.length samples)) in
      bits (Metrics.max_gradient_profile g samples ~after)
      = bits (folded_profile g samples ~after))

(* A run's series profiles, filled in after the run from each point's
   values, are the definition's. The point at time 0 holds the initial
   values, drawn by [random_value] with both infinities, so a gradient node
   may see one neighbour at +inf and another at -inf (its level search then
   finds no level and must still return). Without [series_values] the
   points carry the same profiles and no values. *)
let test_series_profiles =
  QCheck.Test.make ~name:"series profiles = all-pairs definition" ~count:60
    QCheck.(triple (int_range 0 3) (int_range 2 24) small_nat)
    (fun (family, n, seed) ->
      let rng = Prng.create ~seed in
      let g = random_graph family n rng in
      let initial =
        Array.init n (fun _ ->
            random_value ~infinities:[| infinity; neg_infinity |] rng)
      in
      let points series_values =
        let obs =
          { Capture.none with series_period = Some 1.5; series_values }
        in
        let cfg =
          Runner.config ~horizon:6. ~seed ~obs
            ~initial_value_of_node:(Array.get initial) g
        in
        match (Runner.run cfg).Runner.obs.Capture.series with
        | Some s -> Series.points s
        | None -> [||]
      in
      let kept = points true and dropped = points false in
      Array.length kept = 5
      && Array.for_all
           (fun p ->
             bits p.Series.profile
             = bits (reference_profile g p.Series.values))
           kept
      && Array.for_all2
           (fun k d ->
             d.Series.values = [||]
             && bits d.Series.profile = bits k.Series.profile)
           kept dropped)

let suite =
  [
    Alcotest.test_case "global skew" `Quick test_global_skew;
    Alcotest.test_case "local skew" `Quick test_local_skew;
    Alcotest.test_case "real-time skew" `Quick test_real_time_skew;
    Alcotest.test_case "gradient profile" `Quick test_gradient_profile_line;
    Alcotest.test_case "summarize" `Quick test_summarize;
    Alcotest.test_case "summarize empty" `Quick test_summarize_requires_samples;
    Alcotest.test_case "summarize_opt" `Quick test_summarize_opt;
    Alcotest.test_case "max gradient profile" `Quick test_max_gradient_profile;
    Alcotest.test_case "alive masking" `Quick test_alive_masking;
    Alcotest.test_case "summarize alive" `Quick test_summarize_alive;
    QCheck_alcotest.to_alcotest test_local_le_global;
    QCheck_alcotest.to_alcotest test_gradient_profile_dominates_local;
    QCheck_alcotest.to_alcotest test_streamed_profile_equivalence;
    QCheck_alcotest.to_alcotest test_series_profiles;
  ]
