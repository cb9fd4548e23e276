(* Declarative topology churn: grammar, validation, seed-deterministic
   compilation to fault plans, and the bit-identity guarantees the whole
   design rests on — an inert plan compiles to nothing at all, and a
   churned run is an ordinary faulted run, byte-identical across region
   counts. *)

module Churn_plan = Gcs_sim.Churn_plan
module Fault_plan = Gcs_sim.Fault_plan
module Topology = Gcs_graph.Topology
module Graph = Gcs_graph.Graph
module Drift = Gcs_clock.Drift
module Spec = Gcs_core.Spec
module Algorithm = Gcs_core.Algorithm
module Runner = Gcs_core.Runner
module Metrics = Gcs_core.Metrics

let ring8 = Topology.ring 8

let plan_of_string s =
  match Churn_plan.of_string s with
  | Ok p -> p
  | Error msg -> Alcotest.failf "churn plan %S rejected: %s" s msg

let all_kinds_plan =
  Churn_plan.of_processes
    [
      Churn_plan.Edge_down { at = 10.; edges = Fault_plan.Edges [ (0, 1) ] };
      Churn_plan.Edge_up { at = 30.; edges = Fault_plan.Edges [ (0, 1) ] };
      Churn_plan.Flap
        {
          from_ = 5.;
          until = 50.;
          up_mean = 8.;
          down_mean = 2.;
          edges = Fault_plan.Edges [ (4, 5) ];
        };
      Churn_plan.Grow
        { from_ = 0.; until = 20.; edges = Fault_plan.Edges [ (2, 3) ] };
      Churn_plan.Shrink
        { from_ = 40.; until = 60.; edges = Fault_plan.Cut [ 7 ] };
    ]

let test_round_trip () =
  let s = Churn_plan.to_string all_kinds_plan in
  match Churn_plan.of_string s with
  | Error msg -> Alcotest.failf "re-parse failed: %s (spec %S)" msg s
  | Ok p ->
      Alcotest.(check bool)
        (Printf.sprintf "processes preserved through %S" s)
        true
        (Churn_plan.processes p = Churn_plan.processes all_kinds_plan)

let test_of_string_examples () =
  (match Churn_plan.processes (plan_of_string "edge-down@20:edges=0-1,2-3") with
  | [ Churn_plan.Edge_down { at = 20.; edges = Edges [ (0, 1); (2, 3) ] } ] ->
      ()
  | _ -> Alcotest.fail "edge-down parse");
  (match Churn_plan.processes (plan_of_string "edge-up@35.5:cut=0") with
  | [ Churn_plan.Edge_up { at = 35.5; edges = Cut [ 0 ] } ] -> ()
  | _ -> Alcotest.fail "edge-up parse");
  (* flap defaults to all edges when no edge set is named *)
  (match Churn_plan.processes (plan_of_string "flap@10..60:up=8:down=2") with
  | [
   Churn_plan.Flap
     { from_ = 10.; until = 60.; up_mean = 8.; down_mean = 2.; edges = All_edges };
  ] ->
      ()
  | _ -> Alcotest.fail "flap parse");
  (match Churn_plan.processes (plan_of_string "grow@0..15:edges=1-2") with
  | [ Churn_plan.Grow { from_ = 0.; until = 15.; edges = Edges [ (1, 2) ] } ] ->
      ()
  | _ -> Alcotest.fail "grow parse");
  (match Churn_plan.processes (plan_of_string "shrink@40..80:all") with
  | [ Churn_plan.Shrink { from_ = 40.; until = 80.; edges = All_edges } ] -> ()
  | _ -> Alcotest.fail "shrink parse");
  (* processes sort by start time, stable on ties *)
  match
    Churn_plan.processes
      (plan_of_string "edge-up@30:edges=0-1; edge-down@10:edges=0-1")
  with
  | [ Churn_plan.Edge_down { at = 10.; _ }; Churn_plan.Edge_up { at = 30.; _ } ]
    ->
      ()
  | _ -> Alcotest.fail "sorted by start time"

let test_of_string_rejects () =
  let bad s =
    match Churn_plan.of_string s with
    | Ok _ -> Alcotest.failf "%S should have been rejected" s
    | Error _ -> ()
  in
  bad "";
  bad "teleport@10:all";
  bad "edge-up@10";
  (* missing edge set *)
  bad "edge-down@20:0-1";
  (* bare pair: the edges= prefix is required *)
  bad "edge-up@ten:all";
  bad "flap@10..60:up=8";
  (* missing down= *)
  bad "flap@10:up=8:down=2";
  (* flap needs a window *)
  bad "grow@0..20";
  bad "edge-up@10:edges=1:2"

let test_validate () =
  let check_err plan =
    match Churn_plan.validate plan ring8 with
    | Ok () -> Alcotest.fail "expected validation error"
    | Error _ -> ()
  in
  (* non-adjacent pair, out-of-range node *)
  check_err (plan_of_string "edge-up@10:edges=0-4");
  check_err (plan_of_string "edge-down@10:cut=9");
  (* backwards / empty windows, nonpositive holding means, negative time *)
  check_err (plan_of_string "flap@60..10:up=8:down=2");
  check_err (plan_of_string "flap@10..60:up=0:down=2");
  check_err (plan_of_string "flap@10..60:up=8:down=-1");
  check_err (plan_of_string "grow@5..5:edges=0-1");
  check_err (plan_of_string "edge-up@-3:all");
  (* contradictory explicit events at one instant *)
  check_err (plan_of_string "edge-up@10:edges=0-1; edge-down@10:edges=0-1");
  (* an explicit event inside a generative claim on the same edge *)
  check_err (plan_of_string "flap@10..60:up=8:down=2:edges=0-1; \
                             edge-down@30:edges=0-1");
  (* overlapping generative claims; grow owns its edges from t = 0 *)
  check_err (plan_of_string "flap@10..60:up=8:down=2:edges=0-1; \
                             shrink@50..70:edges=0-1");
  check_err (plan_of_string "grow@20..40:edges=0-1; \
                             flap@5..15:up=2:down=2:edges=0-1");
  (* the same shapes on disjoint edges or disjoint times are fine *)
  Alcotest.(check bool) "disjoint edges validate" true
    (Churn_plan.validate
       (plan_of_string "flap@10..60:up=8:down=2:edges=0-1; \
                        shrink@50..70:edges=2-3")
       ring8
    = Ok ());
  Alcotest.(check bool) "same edge, disjoint instants" true
    (Churn_plan.validate
       (plan_of_string "edge-down@10:edges=0-1; edge-up@30:edges=0-1")
       ring8
    = Ok ());
  Alcotest.(check bool) "good plan validates" true
    (Churn_plan.validate all_kinds_plan ring8 = Ok ())

let compile_exn plan ~horizon =
  Churn_plan.compile plan ~graph:ring8 ~seed:11 ~horizon

let test_compile_elision () =
  (* Re-forming an edge that is already up is a no-op; so is a transition
     past the horizon. Inert plans must compile to nothing at all. *)
  Alcotest.(check bool) "edge-up of an up edge is inert" true
    (compile_exn (plan_of_string "edge-up@10:all") ~horizon:80. = None);
  Alcotest.(check bool) "events past the horizon are elided" true
    (compile_exn (plan_of_string "edge-down@200:edges=0-1") ~horizon:80. = None);
  (* A real down/up pair survives as partition + heal. *)
  (match compile_exn (plan_of_string "edge-down@20:edges=0-1; \
                                      edge-up@50:edges=0-1") ~horizon:80. with
  | Some p -> (
      match Fault_plan.events p with
      | [
       Fault_plan.Link_partition { at = 20.; _ };
       Fault_plan.Link_heal { at = 50.; _ };
      ] ->
          ()
      | evs -> Alcotest.failf "expected partition+heal, got %d events"
                 (List.length evs))
  | None -> Alcotest.fail "down/up pair compiled to nothing");
  (* Downing a down edge twice compiles to a single partition. *)
  (match compile_exn (plan_of_string "edge-down@20:edges=0-1; \
                                      edge-down@40:edges=0-1") ~horizon:80. with
  | Some p -> Alcotest.(check int) "one partition" 1
                (List.length (Fault_plan.events p))
  | None -> Alcotest.fail "down compiled to nothing");
  (* Grown edges are absent from t = 0 and appear inside the window. *)
  match compile_exn (plan_of_string "grow@10..30:edges=0-1,2-3") ~horizon:80.
  with
  | Some p ->
      let parts, heals =
        List.partition
          (function Fault_plan.Link_partition _ -> true | _ -> false)
          (Fault_plan.events p)
      in
      Alcotest.(check int) "absent from t=0" 2 (List.length parts);
      List.iter
        (function
          | Fault_plan.Link_partition { at; _ } ->
              Alcotest.(check (float 0.)) "partition at 0" 0. at
          | _ -> ())
        parts;
      Alcotest.(check int) "each appears once" 2 (List.length heals);
      List.iter
        (function
          | Fault_plan.Link_heal { at; _ } ->
              Alcotest.(check bool) "inside the window" true
                (at > 10. && at < 30.)
          | _ -> ())
        heals
  | None -> Alcotest.fail "grow compiled to nothing"

let test_compile_deterministic () =
  let spec = "flap@5..70:up=6:down=3:edges=0-1,3-4; edge-down@75:cut=6" in
  let compile seed =
    match
      Churn_plan.compile (plan_of_string spec) ~graph:ring8 ~seed ~horizon:80.
    with
    | Some p -> Fault_plan.to_string p
    | None -> Alcotest.fail "flap plan compiled to nothing"
  in
  Alcotest.(check string) "same seed, same expansion" (compile 42) (compile 42);
  Alcotest.(check bool) "different seed, different flap schedule" true
    (compile 42 <> compile 43);
  (* A flap leaves every edge up at its window end, whatever the draws. *)
  match
    Churn_plan.compile
      (plan_of_string "flap@5..40:up=4:down=4:edges=0-1")
      ~graph:ring8 ~seed:7 ~horizon:80.
  with
  | None -> () (* no transition fired inside the window: vacuously up *)
  | Some p ->
      let up = ref true in
      List.iter
        (function
          | Fault_plan.Link_partition { at; _ } ->
              Alcotest.(check bool) "inside window" true (at >= 5. && at <= 40.);
              up := false
          | Fault_plan.Link_heal { at; _ } ->
              Alcotest.(check bool) "inside window" true (at >= 5. && at <= 40.);
              up := true
          | _ -> ())
        (Fault_plan.events p);
      Alcotest.(check bool) "up again at window end" true !up

let test_up_windows () =
  let horizon = 80. in
  let plan =
    match
      compile_exn
        (plan_of_string
           "edge-down@20:edges=0-1; edge-up@50:edges=0-1; \
            edge-down@60:edges=4-5")
        ~horizon
    with
    | Some p -> p
    | None -> Alcotest.fail "plan compiled to nothing"
  in
  let wins = Churn_plan.up_windows plan ~graph:ring8 ~horizon in
  Alcotest.(check int) "only touched pairs listed" 2 (List.length wins);
  (match List.assoc_opt (0, 1) wins with
  | Some [ (0., 20.); (50., 80.) ] -> ()
  | Some ivs ->
      Alcotest.failf "unexpected intervals for 0-1 (%d)" (List.length ivs)
  | None -> Alcotest.fail "pair 0-1 missing");
  match List.assoc_opt (4, 5) wins with
  | Some [ (0., 60.) ] -> () (* still down at the horizon: interval closed *)
  | Some ivs ->
      Alcotest.failf "unexpected intervals for 4-5 (%d)" (List.length ivs)
  | None -> Alcotest.fail "pair 4-5 missing"

(* The golden config of test_golden.ml (ring:8, kappa 0.5, split extreme
   drift, horizon 80, seed 7), optionally faulted and region-parallel. *)
let golden_cfg ?fault_plan ?(regions = 1) algo =
  Runner.config
    ~spec:(Spec.make ~kappa:0.5 ())
    ~algo
    ~drift_of_node:(fun v ->
      if v < 4 then Drift.Extreme_high else Drift.Extreme_low)
    ~horizon:80. ~seed:7 ?fault_plan ~regions ring8

(* An inert plan leaves the config without any fault plan at all, so a
   "churned" run is *structurally* the static run — same store key, same
   schedule, same bits — not merely an equivalent one. *)
let test_inert_churn_is_static () =
  List.iter
    (fun algo ->
      let static = Runner.run (golden_cfg algo) in
      let churned =
        let fault_plan =
          Churn_plan.compile
            (plan_of_string "edge-up@10:all; edge-up@42.5:edges=0-1")
            ~graph:ring8 ~seed:7 ~horizon:80.
        in
        Runner.run (golden_cfg ?fault_plan algo)
      in
      Alcotest.(check bool) "outcome identical" true
        (Runner.outcome static = Runner.outcome churned);
      Alcotest.(check bool) "samples identical" true
        (static.Runner.samples = churned.Runner.samples))
    [ Algorithm.Gradient_sync; Algorithm.Dynamic_gradient_sync ]

(* A genuinely churned run is an ordinary faulted run: region-parallel
   execution reproduces the serial one bit for bit. *)
let test_churned_regions_identical () =
  let fault_plan =
    match
      Churn_plan.compile
        (plan_of_string
           "edge-down@20:edges=2-3; edge-up@50:edges=2-3; \
            flap@10..60:up=8:down=4:edges=6-7")
        ~graph:ring8 ~seed:7 ~horizon:80.
    with
    | Some p -> Some p
    | None -> Alcotest.fail "churn plan compiled to nothing"
  in
  List.iter
    (fun algo ->
      let serial = Runner.run (golden_cfg ?fault_plan algo) in
      List.iter
        (fun regions ->
          let par = Runner.run (golden_cfg ?fault_plan ~regions algo) in
          let label = Printf.sprintf "regions=%d" regions in
          Alcotest.(check bool) (label ^ ": outcome identical") true
            (Runner.outcome serial = Runner.outcome par);
          Alcotest.(check bool) (label ^ ": samples identical") true
            (serial.Runner.samples = par.Runner.samples);
          Alcotest.(check int) (label ^ ": events") serial.Runner.events
            par.Runner.events)
        [ 2; 4 ])
    [ Algorithm.Gradient_sync; Algorithm.Dynamic_gradient_sync ]

(* Duty-cycle churn: every edge flaps for the whole run, down a [duty]
   fraction of the time on average, in outages of mean length
   [mean_down]. *)
let duty_flap ~duty ~mean_down ~horizon =
  Churn_plan.of_processes
    [
      Churn_plan.Flap
        {
          from_ = 0.;
          until = horizon;
          up_mean = mean_down *. (1. -. duty) /. duty;
          down_mean = mean_down;
          edges = Fault_plan.All_edges;
        };
    ]

let test_flap_down_fraction () =
  let graph = Topology.line 2 and horizon = 100_000. in
  let plan =
    match
      Churn_plan.compile
        (duty_flap ~duty:0.3 ~mean_down:10. ~horizon)
        ~graph ~seed:3 ~horizon
    with
    | Some p -> p
    | None -> Alcotest.fail "flap plan compiled to nothing"
  in
  let up =
    match Churn_plan.up_windows plan ~graph ~horizon with
    | [ (_, ivs) ] -> List.fold_left (fun acc (a, b) -> acc +. (b -. a)) 0. ivs
    | _ -> Alcotest.fail "expected the one edge's up-intervals"
  in
  let fraction = 1. -. (up /. horizon) in
  Alcotest.(check bool)
    (Printf.sprintf "down fraction %.3f near 0.3" fraction)
    true
    (Float.abs (fraction -. 0.3) < 0.05)

(* Gradient on ring:16 under duty-cycle churn (no plan at duty 0); skews
   over the second half of the run. *)
let duty_churned_run ~duty ~seed =
  let graph = Topology.ring 16 and horizon = 600. in
  let fault_plan =
    if duty = 0. then None
    else
      Churn_plan.compile
        (duty_flap ~duty ~mean_down:10. ~horizon)
        ~graph ~seed ~horizon
  in
  let r =
    Runner.run (Runner.config ?fault_plan ~horizon ~warmup:0. ~seed graph)
  in
  (r, Metrics.summarize graph r.Runner.samples ~after:(horizon /. 2.))

let test_flap_drop_rate_tracks_duty () =
  let r, _ = duty_churned_run ~duty:0.25 ~seed:5 in
  let rate =
    float_of_int r.Runner.dropped_faults /. float_of_int r.Runner.messages
  in
  Alcotest.(check bool)
    (Printf.sprintf "drop rate %.3f near duty 0.25" rate)
    true
    (Float.abs (rate -. 0.25) < 0.08)

(* Beacon state is soft: gradient coasts on stale estimates through
   outages, so 30% churn costs a small factor of the unchurned skew. *)
let test_flap_graceful_degradation () =
  let _, quiet = duty_churned_run ~duty:0. ~seed:7 in
  let _, noisy = duty_churned_run ~duty:0.3 ~seed:7 in
  Alcotest.(check bool)
    (Printf.sprintf "max local %.3f under churn vs %.3f without"
       noisy.Metrics.max_local quiet.Metrics.max_local)
    true
    (noisy.Metrics.max_local < 2.5 *. quiet.Metrics.max_local)

(* Random plans round-trip through the textual syntax. *)
let qcheck_round_trip =
  let open QCheck in
  let time = Gen.map (fun i -> float_of_int i /. 4.) (Gen.int_range 0 320) in
  let edge_spec_gen =
    Gen.oneof
      [
        Gen.return Fault_plan.All_edges;
        Gen.map (fun v -> Fault_plan.Cut [ v ]) (Gen.int_range 0 7);
        Gen.map
          (fun v -> Fault_plan.Edges [ (v, (v + 1) mod 8) ])
          (Gen.int_range 0 6);
      ]
  in
  let window =
    Gen.map2
      (fun from_ d -> (from_, from_ +. (1. +. d)))
      time
      (Gen.map (fun i -> float_of_int i /. 4.) (Gen.int_range 0 200))
  in
  let mean = Gen.map (fun i -> float_of_int i /. 4.) (Gen.int_range 1 40) in
  let process_gen =
    Gen.oneof
      [
        Gen.map2 (fun at edges -> Churn_plan.Edge_up { at; edges }) time
          edge_spec_gen;
        Gen.map2 (fun at edges -> Churn_plan.Edge_down { at; edges }) time
          edge_spec_gen;
        Gen.map3
          (fun (from_, until) (up_mean, down_mean) edges ->
            Churn_plan.Flap { from_; until; up_mean; down_mean; edges })
          window (Gen.pair mean mean) edge_spec_gen;
        Gen.map2
          (fun (from_, until) edges -> Churn_plan.Grow { from_; until; edges })
          window edge_spec_gen;
        Gen.map2
          (fun (from_, until) edges ->
            Churn_plan.Shrink { from_; until; edges })
          window edge_spec_gen;
      ]
  in
  let plan_gen =
    Gen.map Churn_plan.of_processes
      (Gen.list_size (Gen.int_range 1 6) process_gen)
  in
  let arb = QCheck.make plan_gen ~print:Churn_plan.to_string in
  QCheck.Test.make ~count:100 ~name:"textual syntax round-trips" arb (fun p ->
      match Churn_plan.of_string (Churn_plan.to_string p) with
      | Ok p' -> Churn_plan.processes p' = Churn_plan.processes p
      | Error _ -> false)

(* Any all-edges-up plan — whatever the times — is inert: it compiles to
   [None], so the config cannot even tell churn was mentioned. *)
let qcheck_inert =
  let open QCheck in
  let time = Gen.map (fun i -> float_of_int i /. 4.) (Gen.int_range 0 320) in
  let edge_spec_gen =
    Gen.oneof
      [
        Gen.return Fault_plan.All_edges;
        Gen.map (fun v -> Fault_plan.Cut [ v ]) (Gen.int_range 0 7);
        Gen.map
          (fun v -> Fault_plan.Edges [ (v, (v + 1) mod 8) ])
          (Gen.int_range 0 6);
      ]
  in
  let plan_gen =
    Gen.map Churn_plan.of_processes
      (Gen.list_size (Gen.int_range 1 6)
         (Gen.map2
            (fun at edges -> Churn_plan.Edge_up { at; edges })
            time edge_spec_gen))
  in
  let arb = QCheck.make plan_gen ~print:Churn_plan.to_string in
  QCheck.Test.make ~count:100 ~name:"all-edges-up plans compile to None" arb
    (fun p ->
      match Churn_plan.compile p ~graph:ring8 ~seed:3 ~horizon:80. with
      | None -> true
      | Some _ -> false)

let suite =
  [
    Alcotest.test_case "round trip (all kinds)" `Quick test_round_trip;
    Alcotest.test_case "of_string examples" `Quick test_of_string_examples;
    Alcotest.test_case "of_string rejects" `Quick test_of_string_rejects;
    Alcotest.test_case "validate" `Quick test_validate;
    Alcotest.test_case "compile elision" `Quick test_compile_elision;
    Alcotest.test_case "compile deterministic" `Quick test_compile_deterministic;
    Alcotest.test_case "up_windows" `Quick test_up_windows;
    Alcotest.test_case "inert churn is the static run" `Quick
      test_inert_churn_is_static;
    Alcotest.test_case "churned run identical across regions" `Quick
      test_churned_regions_identical;
    Alcotest.test_case "flap down fraction" `Quick test_flap_down_fraction;
    Alcotest.test_case "flap drop rate tracks duty" `Quick
      test_flap_drop_rate_tracks_duty;
    Alcotest.test_case "flap graceful degradation" `Quick
      test_flap_graceful_degradation;
    QCheck_alcotest.to_alcotest qcheck_round_trip;
    QCheck_alcotest.to_alcotest qcheck_inert;
  ]
