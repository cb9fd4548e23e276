(* The parallel runner's contract: sharding a batch across domains changes
   wall-clock time and nothing else. The qcheck property drives that over
   random graph families, algorithms, seeds, and loss laws. *)

module Topology = Gcs_graph.Topology
module Algorithm = Gcs_core.Algorithm
module Runner = Gcs_core.Runner
module Parallel_run = Gcs_core.Parallel_run
module Metrics = Gcs_core.Metrics

let graph_of_family (family, n) =
  match family with
  | `Line -> Topology.line n
  | `Ring -> Topology.ring n
  | `Star -> Topology.star n
  | `Complete -> Topology.complete n
  | `Grid -> Topology.grid ~rows:2 ~cols:(max 2 (n / 2))

let config_gen =
  QCheck.Gen.(
    let* family = oneofl [ `Line; `Ring; `Star; `Complete; `Grid ] in
    let* n = int_range 4 9 in
    let* algo = oneofl Algorithm.all_kinds in
    let* seed = int_range 0 10_000 in
    let* loss_p = oneofl [ 0.; 0.; 0.3; 0.6 ] in
    return (family, n, algo, seed, loss_p))

let config_print (family, n, algo, seed, loss_p) =
  Printf.sprintf "%s:%d %s seed=%d loss=%g"
    (match family with
    | `Line -> "line"
    | `Ring -> "ring"
    | `Star -> "star"
    | `Complete -> "complete"
    | `Grid -> "grid")
    n
    (Algorithm.kind_name algo)
    seed loss_p

let build (family, n, algo, seed, loss_p) =
  let loss =
    if loss_p <= 0. then Runner.No_loss else Runner.Uniform_loss loss_p
  in
  Runner.config ~algo ~loss ~horizon:40. ~seed (graph_of_family (family, n))

let batch_arb =
  QCheck.make
    ~print:(fun cs -> String.concat "; " (List.map config_print cs))
    QCheck.Gen.(list_size (int_range 1 5) config_gen)

let same_sample (a : Metrics.sample) (b : Metrics.sample) =
  a.Metrics.time = b.Metrics.time && a.Metrics.values = b.Metrics.values

let same_result (a : Runner.result) (b : Runner.result) =
  a.Runner.summary = b.Runner.summary
  && Array.length a.Runner.samples = Array.length b.Runner.samples
  && Array.for_all2 same_sample a.Runner.samples b.Runner.samples
  && a.Runner.events = b.Runner.events
  && a.Runner.messages = b.Runner.messages
  && a.Runner.dropped = b.Runner.dropped
  && a.Runner.jumps = b.Runner.jumps

let prop_sharding_deterministic =
  QCheck.Test.make ~name:"run ~jobs:4 = run ~jobs:1 (summaries, samples, counts)"
    ~count:12 batch_arb (fun batch ->
      let cfgs = Array.of_list (List.map build batch) in
      let serial = Parallel_run.run ~jobs:1 cfgs in
      let parallel = Parallel_run.run ~jobs:4 cfgs in
      Array.length serial = Array.length parallel
      && Array.for_all2 same_result serial parallel)

let test_merge () =
  let graph = Topology.ring 6 in
  let cfgs =
    Array.of_list
      (List.map
         (fun seed -> Runner.config ~horizon:30. ~seed graph)
         [ 3; 14; 15 ])
  in
  let results = Parallel_run.run ~jobs:2 cfgs in
  let m = Parallel_run.merge results in
  Alcotest.(check int) "one summary per config" 3
    (Array.length m.Parallel_run.summaries);
  Array.iteri
    (fun i (r : Runner.result) ->
      Alcotest.(check bool)
        (Printf.sprintf "summary %d preserved" i)
        true
        (m.Parallel_run.summaries.(i) = r.Runner.summary))
    results;
  let sum f = Array.fold_left (fun acc r -> acc + f r) 0 results in
  Alcotest.(check int) "events total" (sum (fun r -> r.Runner.events))
    m.Parallel_run.events;
  Alcotest.(check int) "messages total" (sum (fun r -> r.Runner.messages))
    m.Parallel_run.messages;
  Alcotest.(check int) "dropped total" (sum (fun r -> r.Runner.dropped))
    m.Parallel_run.dropped

let test_merge_observability () =
  let graph = Topology.ring 6 in
  let obs = Gcs_obs.Capture.full ~series_period:10. () in
  let cfgs =
    Array.of_list
      (List.map
         (fun seed -> Runner.config ~horizon:30. ~seed ~obs graph)
         [ 3; 14 ])
  in
  let results = Parallel_run.run ~jobs:2 cfgs in
  let m = Parallel_run.merge results in
  (* Series points: 4 per run (t = 0, 10, 20, 30), tagged by run index,
     sorted by time with ties broken by run. *)
  Alcotest.(check int) "series points merged" 8
    (Array.length m.Parallel_run.series);
  Array.iteri
    (fun i (run, p) ->
      Alcotest.(check bool) "run tag in range" true (run = 0 || run = 1);
      if i > 0 then begin
        let prev_run, prev = m.Parallel_run.series.(i - 1) in
        Alcotest.(check bool) "series time sorted" true
          (prev.Gcs_obs.Series.time <= p.Gcs_obs.Series.time);
        if prev.Gcs_obs.Series.time = p.Gcs_obs.Series.time then
          Alcotest.(check bool) "series stable on ties" true (prev_run <= run)
      end)
    m.Parallel_run.series;
  (* The merged profile sums the per-run reports. *)
  (match m.Parallel_run.profile with
  | None -> Alcotest.fail "expected a merged profiler report"
  | Some rep ->
      let total =
        Array.fold_left (fun acc r -> acc + r.Runner.events) 0 results
      in
      Alcotest.(check int) "profiled events total" total
        rep.Gcs_obs.Profiler.events);
  (* Without capture requests there is nothing to merge. *)
  let bare =
    Parallel_run.merge
      (Parallel_run.run ~jobs:1
         [| Runner.config ~horizon:30. ~seed:3 graph |])
  in
  Alcotest.(check int) "no series without capture" 0
    (Array.length bare.Parallel_run.series);
  Alcotest.(check bool) "no profile without capture" true
    (bare.Parallel_run.profile = None)

let test_replicate_jobs () =
  let graph = Topology.line 7 in
  let f seed =
    let cfg = Runner.config ~horizon:40. ~seed graph in
    (Runner.run cfg).Runner.summary.Metrics.max_local
  in
  let seeds = Gcs_core.Replicate.seeds 8 in
  let serial = Gcs_core.Replicate.measure ~seeds f in
  let sharded = Gcs_core.Replicate.measure ~jobs:4 ~seeds f in
  Alcotest.(check bool) "replicate summary identical under jobs" true
    (serial = sharded)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_sharding_deterministic;
    Alcotest.test_case "merge is order-preserving and total" `Quick test_merge;
    Alcotest.test_case "merge carries series and profile" `Quick
      test_merge_observability;
    Alcotest.test_case "replicate ~jobs matches serial" `Quick
      test_replicate_jobs;
  ]
