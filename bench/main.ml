(* Experiment harness: regenerates every "table and figure" of the
   reproduction (E1-E24 in DESIGN.md). Run everything with

     dune exec bench/main.exe

   or a subset with e.g.

     dune exec bench/main.exe -- e1 e3

   The Fan-Lynch PODC 2004 paper is pure theory, so each experiment
   operationalizes one of its claims (or an explicitly cited context
   result); EXPERIMENTS.md records the measured outcomes next to the
   expected shapes. *)

module Graph = Gcs_graph.Graph
module Topology = Gcs_graph.Topology
module Shortest_path = Gcs_graph.Shortest_path
module Drift = Gcs_clock.Drift
module Lc = Gcs_clock.Logical_clock
module Hc = Gcs_clock.Hardware_clock
module Spec = Gcs_core.Spec
module Algorithm = Gcs_core.Algorithm
module Runner = Gcs_core.Runner
module Metrics = Gcs_core.Metrics
module Bounds = Gcs_core.Bounds
module Gradient_sync = Gcs_core.Gradient_sync
module Fan_lynch = Gcs_adversary.Fan_lynch
module Linear = Gcs_adversary.Linear
module Bias = Gcs_adversary.Bias
module Table = Gcs_util.Table
module Prng = Gcs_util.Prng
module Stats = Gcs_util.Stats
module Heap = Gcs_util.Scheduler
module Fault_plan = Gcs_sim.Fault_plan
module Churn_plan = Gcs_sim.Churn_plan

let spec = Spec.make ()
let u = Spec.uncertainty spec
let fmt = Table.fmt_float ~digits:3

let header id title =
  Printf.printf "\n\n### %s — %s\n" id title;
  flush stdout

(* When --csv DIR is on the command line, every table is also persisted as
   DIR/<name>.csv so the "figures" are regenerable artifacts. *)
let csv_dir : string option ref = ref None

(* -jobs N shards replicate batches (E7) and the E19 sweep benchmark
   across that many domains; results are identical for every N. *)
let jobs = ref (Gcs_util.Pool.default_jobs ())

let print_table ~name ~title ~columns ~rows =
  Table.print ~title ~columns ~rows;
  match !csv_dir with
  | None -> ()
  | Some dir ->
      let header = List.map (fun c -> c.Table.header) columns in
      Gcs_util.Csv.write
        ~path:(Filename.concat dir (name ^ ".csv"))
        ~header ~rows

(* E1: the main theorem. Adversaries controlling only drift and delays
   force local skew above the c * u * log D / log log D line, growing with
   D, while the gradient algorithm stays within its analytic envelope. Two
   attacks are reported against the gradient algorithm: the paper's
   scale-recursive schedule and the sustained-pressure attack (one drift
   split + hiding bias held for the whole run) that the automated adversary
   search of E14 discovered to be the stronger of the two against this
   implementation. *)
let e1 () =
  header "E1" "Lower-bound adversaries: forced local skew vs diameter (line)";
  let algos = [ Algorithm.Gradient_sync; Algorithm.Tree_sync; Algorithm.Max_sync ] in
  let rows =
    List.map
      (fun d ->
        let n = d + 1 in
        let forced algo =
          let cfg = Fan_lynch.default_config ~spec ~algo ~n ~seed:17 () in
          (Fan_lynch.attack cfg).Fan_lynch.forced_local
        in
        let sustained =
          (Linear.attack ~spec ~algo:Algorithm.Gradient_sync ~n ~seed:17 ())
            .Linear.forced_local
        in
        let cells = List.map (fun a -> fmt (forced a)) algos in
        (string_of_int d :: cells)
        @ [
            fmt sustained;
            fmt (Bounds.fan_lynch_lower ~u ~diameter:d);
            fmt (Bounds.gradient_local_upper spec ~diameter:d);
          ])
      [ 8; 16; 32; 64; 128; 256 ]
  in
  print_table ~name:"e1_forced_local"
    ~title:"Forced local skew (higher = attack stronger)"
    ~columns:
      ([ Table.column ~align:Table.Left "D" ]
      @ List.map (fun a -> Table.column (Algorithm.kind_name a)) algos
      @ [
          Table.column "sustained (vs gradient)";
          Table.column "theorem line";
          Table.column "gradient envelope";
        ])
    ~rows

(* E2: the gradient property. Max skew as a function of hop distance on a
   benign line: for the gradient algorithm the curve flattens (nearby nodes
   are much better synchronized than distant ones); the profile is the
   empirical gradient function f(k). *)
let e2 () =
  header "E2" "Empirical gradient function f(k) on line:33 (benign run)";
  let graph = Topology.line 33 in
  let profile algo =
    let cfg = Runner.config ~spec ~algo ~horizon:600. ~seed:23 graph in
    let r = Runner.run cfg in
    Metrics.max_gradient_profile graph r.Runner.samples ~after:cfg.Runner.warmup
  in
  let algos = [ Algorithm.Gradient_sync; Algorithm.Tree_sync; Algorithm.Max_sync ] in
  let profiles = List.map (fun a -> (a, profile a)) algos in
  let ks = [ 1; 2; 4; 8; 16; 24; 32 ] in
  let rows =
    List.map
      (fun k ->
        string_of_int k
        :: List.map (fun (_, p) -> fmt p.(k - 1)) profiles)
      ks
  in
  print_table ~name:"e2_gradient_profile" ~title:"max skew between nodes at hop distance k"
    ~columns:
      (Table.column ~align:Table.Left "k"
      :: List.map (fun (a, _) -> Table.column (Algorithm.kind_name a)) profiles)
    ~rows

(* E3: the separation. Under a consistent directional delay bias on a ring,
   tree-based synchronization accumulates Theta(D) skew across the
   cycle-closing edge while the gradient algorithm stays near its
   logarithmic envelope. *)
let e3 () =
  header "E3" "Ring-bias adversary: forced local skew vs diameter (ring)";
  let algos = [ Algorithm.Gradient_sync; Algorithm.Tree_sync; Algorithm.Max_sync ] in
  let rows =
    List.map
      (fun d ->
        let n = 2 * d in
        let forced algo =
          (Bias.attack_ring ~spec ~algo ~n ~seed:29 ()).Bias.forced_local
        in
        (string_of_int d :: List.map (fun a -> fmt (forced a)) algos)
        @ [ fmt (Bounds.gradient_local_upper spec ~diameter:d) ])
      [ 4; 8; 16; 32; 64 ]
  in
  print_table ~name:"e3_ring_bias"
    ~title:"Forced local skew on ring of diameter D (tree should grow ~ D)"
    ~columns:
      ([ Table.column ~align:Table.Left "D" ]
      @ List.map (fun a -> Table.column (Algorithm.kind_name a)) algos
      @ [ Table.column "gradient envelope" ])
    ~rows

(* E4: the context bound. The single-phase linear adversary forces global
   skew Omega(u * D) on a line regardless of the algorithm. *)
let e4 () =
  header "E4" "Linear adversary: forced global skew vs diameter (line)";
  let algos = [ Algorithm.Gradient_sync; Algorithm.Tree_sync; Algorithm.Max_sync ] in
  let rows =
    List.map
      (fun d ->
        let n = d + 1 in
        let forced algo =
          (Linear.attack ~spec ~algo ~n ~seed:31 ()).Linear.forced_global
        in
        (string_of_int d :: List.map (fun a -> fmt (forced a)) algos)
        @ [ fmt (u *. float_of_int d /. 4.) ])
      [ 8; 16; 32; 64 ]
  in
  print_table ~name:"e4_global_skew" ~title:"Forced global skew (all must exceed u*D/4)"
    ~columns:
      ([ Table.column ~align:Table.Left "D" ]
      @ List.map (fun a -> Table.column (Algorithm.kind_name a)) algos
      @ [ Table.column "u*D/4" ])
    ~rows

(* E5: skew dynamics. Time series of global/local skew while the Fan-Lynch
   adversary works over a line; the phase structure of the attack (stretch,
   refocus, press) is visible in the curves. *)
let e5 () =
  header "E5" "Skew build-up over time under the Fan-Lynch attack (line:65)";
  let n = 65 in
  let cfg =
    Fan_lynch.default_config ~spec ~algo:Algorithm.Gradient_sync ~n ~seed:37 ()
  in
  let report = Fan_lynch.attack cfg in
  let samples = report.Fan_lynch.result.Runner.samples in
  let graph = report.Fan_lynch.result.Runner.graph in
  let count = Array.length samples in
  let picks = 16 in
  let rows =
    List.init picks (fun i ->
        let idx = i * (count - 1) / (picks - 1) in
        let s = samples.(idx) in
        [
          fmt s.Metrics.time;
          fmt (Metrics.global_skew s.Metrics.values);
          fmt (Metrics.local_skew graph s.Metrics.values);
        ])
  in
  print_table ~name:"e5_timeseries" ~title:"global and local skew over the attack"
    ~columns:
      [ Table.column ~align:Table.Left "time"; Table.column "global"; Table.column "local" ]
    ~rows;
  Printf.printf "phases: %d, forced local: %s, theorem line: %s\n"
    report.Fan_lynch.phases (fmt report.Fan_lynch.forced_local)
    (fmt report.Fan_lynch.lower_bound)

(* E6: parameter sensitivity. (a) Forced local skew scales with the per-hop
   uncertainty u; (b) benign local skew tracks kappa, which scales with
   drift rho through the spec derivation. *)
let e6 () =
  header "E6" "Parameter sensitivity";
  let rows =
    List.map
      (fun u_i ->
        let spec_u =
          Spec.make ~d_min:(0.5 *. u_i) ~d_max:(1.5 *. u_i)
            ~beacon_period:(Float.max 1. u_i) ()
        in
        let cfg =
          Fan_lynch.default_config ~spec:spec_u
            ~algo:Algorithm.Gradient_sync ~n:33 ~seed:41 ()
        in
        let r = Fan_lynch.attack cfg in
        [
          fmt u_i;
          fmt spec_u.Spec.kappa;
          fmt r.Fan_lynch.forced_local;
          fmt (Bounds.fan_lynch_lower ~u:u_i ~diameter:32);
        ])
      [ 0.25; 0.5; 1.; 2.; 4. ]
  in
  print_table ~name:"e6a_u_sweep" ~title:"(a) forced local skew vs uncertainty u (line:33)"
    ~columns:
      [
        Table.column ~align:Table.Left "u";
        Table.column "kappa";
        Table.column "forced local";
        Table.column "theorem line";
      ]
    ~rows;
  let rows =
    List.map
      (fun rho ->
        let spec_r = Spec.make ~rho ~mu:(10. *. rho) () in
        let cfg =
          Runner.config ~spec:spec_r ~algo:Algorithm.Gradient_sync
            ~horizon:600. ~seed:43 (Topology.ring 32)
        in
        let r = Runner.run cfg in
        [
          fmt rho;
          fmt spec_r.Spec.kappa;
          fmt r.Runner.summary.Metrics.max_local;
          fmt (Bounds.gradient_local_upper spec_r ~diameter:16);
        ])
      [ 0.002; 0.01; 0.05 ]
  in
  print_table ~name:"e6b_rho_sweep" ~title:"(b) benign local skew vs drift rho (ring:32, mu = 10 rho)"
    ~columns:
      [
        Table.column ~align:Table.Left "rho";
        Table.column "kappa";
        Table.column "max local";
        Table.column "envelope";
      ]
    ~rows

(* E7: topology generality. The gradient algorithm keeps local skew within
   its envelope on every graph family. *)
let e7 () =
  header "E7" "Gradient algorithm across topologies (benign runs)";
  let rng = Prng.create ~seed:47 in
  let cases =
    [
      ("line:65", Topology.line 65);
      ("ring:64", Topology.ring 64);
      ("grid:8x8", Topology.grid ~rows:8 ~cols:8);
      ("torus:8x8", Topology.torus ~rows:8 ~cols:8);
      ("btree:5", Topology.binary_tree ~depth:5);
      ("hypercube:6", Topology.hypercube ~dim:6);
      ("gnp:64:0.08", Topology.random_gnp ~n:64 ~p:0.08 ~rng);
      ("geometric:64:0.2", fst (Topology.random_geometric ~n:64 ~radius:0.2 ~rng));
    ]
  in
  let seeds = Gcs_core.Replicate.seeds 5 in
  let rows =
    List.map
      (fun (name, graph) ->
        let d = Shortest_path.diameter graph in
        (* One run per seed, read for both columns. *)
        let summaries =
          Gcs_util.Pool.map ~jobs:!jobs
            (fun seed ->
              (Runner.run
                 (Runner.config ~spec ~algo:Algorithm.Gradient_sync
                    ~horizon:500. ~seed graph))
                .Runner.summary)
            (Array.of_list seeds)
        in
        let measure f =
          Gcs_core.Replicate.summarize (Array.map f summaries)
        in
        let local = measure (fun s -> s.Metrics.max_local) in
        let global = measure (fun s -> s.Metrics.max_global) in
        [
          name;
          string_of_int (Graph.n graph);
          string_of_int d;
          Gcs_core.Replicate.to_string local;
          Gcs_core.Replicate.to_string global;
          fmt (Bounds.gradient_local_upper spec ~diameter:d);
        ])
      cases
  in
  print_table ~name:"e7_topologies" ~title:"local skew stays under the envelope everywhere"
    ~columns:
      [
        Table.column ~align:Table.Left "topology";
        Table.column "n";
        Table.column "D";
        Table.column "max local";
        Table.column "max global";
        Table.column "envelope";
      ]
    ~rows

(* E9: robustness. Message loss and link churn degrade skew gracefully —
   beacon state is soft, so the gradient algorithm coasts on stale
   estimates through outages. Churn is a [flap] plan on every edge whose
   up and down holding times (mean outage 10) keep each link down a
   [duty] fraction of the time; skews are taken over the second half. *)
let e9 () =
  header "E9" "Loss and churn tolerance (gradient on ring:32)";
  let graph = Topology.ring 32 in
  let horizon = 600. and mean_down = 10. and seed = 59 in
  let rows =
    List.map
      (fun duty ->
        let fault_plan =
          if duty = 0. then None
          else
            Churn_plan.compile
              (Churn_plan.of_processes
                 [
                   Churn_plan.Flap
                     {
                       from_ = 0.;
                       until = horizon;
                       up_mean = mean_down *. (1. -. duty) /. duty;
                       down_mean = mean_down;
                       edges = Fault_plan.All_edges;
                     };
                 ])
              ~graph ~seed ~horizon
        in
        let r =
          Runner.run
            (Runner.config ~spec ?fault_plan ~horizon ~warmup:0. ~seed graph)
        in
        let tail =
          Metrics.summarize graph r.Runner.samples ~after:(horizon /. 2.)
        in
        [
          fmt duty;
          fmt (float r.Runner.dropped_faults /. float r.Runner.messages);
          fmt tail.Metrics.max_local;
          fmt tail.Metrics.max_global;
        ])
      [ 0.; 0.1; 0.3; 0.5; 0.8 ]
  in
  print_table ~name:"e9a_churn" ~title:"link churn (per-edge outages, exponential renewal)"
    ~columns:
      [
        Table.column ~align:Table.Left "duty";
        Table.column "drop rate";
        Table.column "max local";
        Table.column "max global";
      ]
    ~rows;
  let rows =
    List.map
      (fun p ->
        let cfg =
          Runner.config ~spec ~algo:Algorithm.Gradient_sync
            ~loss:(Runner.Uniform_loss p) ~horizon:600. ~seed:61 graph
        in
        let r = Runner.run cfg in
        [
          fmt p;
          fmt r.Runner.summary.Metrics.max_local;
          fmt r.Runner.summary.Metrics.max_global;
        ])
      [ 0.; 0.25; 0.5; 0.75; 0.9 ]
  in
  print_table ~name:"e9b_loss" ~title:"i.i.d. message loss"
    ~columns:
      [
        Table.column ~align:Table.Left "loss p";
        Table.column "max local";
        Table.column "max global";
      ]
    ~rows

(* E10: self-stabilization. Recovery from transient faults of growing
   magnitude: the bare gradient algorithm needs time proportional to the
   fault, the monitor-and-reset wrapper needs one detection round. *)
let e10 () =
  header "E10" "Self-stabilization: recovery from a corrupted clock (line:16)";
  let graph = Topology.line 16 in
  let rows =
    List.map
      (fun fault ->
        let init v = if v = 7 then fault else 0. in
        let bare =
          Runner.run
            (Runner.config ~spec ~algo:Algorithm.Gradient_sync
               ~initial_value_of_node:init ~horizon:400. ~warmup:350. ~seed:67
               graph)
        in
        let wrapped, stats =
          Gcs_core.Stabilize.wrap
            ~inner:(Gcs_core.Registry.get Algorithm.Gradient_sync)
            ()
        in
        let healed =
          Runner.run
            (Runner.config ~spec ~algo:Algorithm.Gradient_sync
               ~override:wrapped ~initial_value_of_node:init ~horizon:400.
               ~warmup:350. ~seed:67 graph)
        in
        [
          Printf.sprintf "%.0e" fault;
          fmt bare.Runner.summary.Metrics.final_global;
          fmt healed.Runner.summary.Metrics.final_global;
          string_of_int stats.Gcs_core.Stabilize.resets;
        ])
      [ 1e2; 1e4; 1e6 ]
  in
  print_table ~name:"e10_stabilization"
    ~title:"global skew 400 time units after a fault of the given size"
    ~columns:
      [
        Table.column ~align:Table.Left "fault";
        Table.column "bare gradient";
        Table.column "stabilized";
        Table.column "resets";
      ]
    ~rows

(* E11: external synchronization. Real-time skew versus anchor density:
   denser anchors shorten the distance to the virtual reference node. *)
let e11 () =
  header "E11" "External synchronization: real-time skew vs anchors (line:33)";
  let graph = Topology.line 33 in
  let gps =
    Gcs_core.External_sync.noisy_reference ~bias:0.1 ~wander:0.2 ~period:150.
      ~phase:0.7
  in
  let max_rt (r : Runner.result) =
    Array.fold_left
      (fun acc (s : Metrics.sample) ->
        if s.Metrics.time >= 1000. then
          Float.max acc
            (Metrics.real_time_skew ~time:s.Metrics.time s.Metrics.values)
        else acc)
      0. r.Runner.samples
  in
  let rows =
    List.map
      (fun (name, anchors) ->
        let algo = Gcs_core.External_sync.algorithm ~anchors in
        let r =
          Runner.run
            (Runner.config ~spec ~algo:Algorithm.Gradient_sync ~override:algo
               ~horizon:2000. ~sample_period:2. ~seed:71 graph)
        in
        [
          name;
          fmt (max_rt r);
          fmt r.Runner.summary.Metrics.max_local;
          fmt r.Runner.summary.Metrics.max_global;
        ])
      [
        ("none", fun _ -> None);
        ("node 0 only", fun v -> if v = 0 then Some gps else None);
        ("every 8th", fun v -> if v mod 8 = 0 then Some gps else None);
        ("all", fun _ -> Some gps);
      ]
  in
  print_table ~name:"e11_external" ~title:"max |L_v - t| after convergence (reference error ~0.3)"
    ~columns:
      [
        Table.column ~align:Table.Left "anchors";
        Table.column "real-time skew";
        Table.column "max local";
        Table.column "max global";
      ]
    ~rows

(* E12: heterogeneous networks. Per-edge skew quanta confine the cost of a
   bad link to that link; the uniform algorithm taxes every edge at the
   system-wide worst case. *)
let e12 () =
  header "E12" "Heterogeneous edges: one bad link on a line of 17";
  let graph = Topology.line 17 in
  let bad_edge = 8 in
  let rows =
    List.map
      (fun bad_u ->
        let edge_bounds e =
          if e = bad_edge then
            Gcs_sim.Delay_model.bounds ~d_min:0.1 ~d_max:(0.1 +. bad_u)
          else Gcs_sim.Delay_model.bounds ~d_min:0.9 ~d_max:1.1
        in
        (* The uniform spec must assume the worst edge everywhere. *)
        let spec_worst =
          Spec.make ~d_min:0.1 ~d_max:(0.1 +. bad_u) ~beacon_period:2. ()
        in
        let good_edge_skew ~override =
          let cfg =
            Runner.config ~spec:spec_worst ~algo:Algorithm.Gradient_sync
              ?override
              ~delay_kind:(Runner.Per_edge_delays edge_bounds) ~horizon:800.
              ~seed:33 graph
          in
          let r = Runner.run cfg in
          let worst_good = ref 0. and worst_bad = ref 0. in
          Array.iter
            (fun (s : Metrics.sample) ->
              if s.Metrics.time >= cfg.Runner.warmup then begin
                let per_edge =
                  Metrics.local_skew_edges graph s.Metrics.values
                in
                Array.iteri
                  (fun e x ->
                    if e = bad_edge then worst_bad := Float.max !worst_bad x
                    else worst_good := Float.max !worst_good x)
                  per_edge
              end)
            r.Runner.samples;
          (!worst_good, !worst_bad)
        in
        let ug, ub = good_edge_skew ~override:None in
        let hg, hb =
          good_edge_skew
            ~override:(Some (Gcs_core.Gradient_hetero.algorithm ~edge_bounds))
        in
        [ fmt bad_u; fmt ug; fmt ub; fmt hg; fmt hb ])
      [ 1.; 2.; 4. ]
  in
  print_table ~name:"e12_hetero"
    ~title:
      "max skew on good edges / on the bad edge (uniform vs per-edge quanta)"
    ~columns:
      [
        Table.column ~align:Table.Left "bad-edge u";
        Table.column "uniform good";
        Table.column "uniform bad";
        Table.column "hetero good";
        Table.column "hetero bad";
      ]
    ~rows

(* E13: ablations of the gradient algorithm's two tuning knobs.
   (a) The speedup mu sets sigma = mu / rho, the base of the logarithm in
       the local-skew bound: more speedup, fewer levels, less skew under
       attack — at the cost of a worse output-rate envelope.
   (b) The beacon period trades message cost against estimate staleness
       (kappa grows with the period, and the achieved skew follows it). *)
let e13 () =
  header "E13" "Ablations: mu and beacon period (gradient algorithm)";
  let rows =
    List.map
      (fun mu ->
        let spec_mu = Spec.make ~mu () in
        let report =
          Bias.attack_ring ~spec:spec_mu ~algo:Algorithm.Gradient_sync ~n:32
            ~seed:73 ()
        in
        [
          fmt mu;
          fmt (Spec.sigma spec_mu);
          fmt report.Gcs_adversary.Bias.forced_local;
          fmt (Bounds.gradient_local_upper spec_mu ~diameter:16);
          fmt ((1. +. mu) *. Spec.vartheta spec_mu);
        ])
      [ 0.02; 0.05; 0.1; 0.3 ]
  in
  print_table ~name:"e13a_mu_sweep"
    ~title:"(a) forced local skew under ring bias vs speedup mu (ring:32)"
    ~columns:
      [
        Table.column ~align:Table.Left "mu";
        Table.column "sigma";
        Table.column "forced local";
        Table.column "envelope";
        Table.column "max rate beta";
      ]
    ~rows;
  let rows =
    List.map
      (fun period ->
        let spec_p = Spec.make ~beacon_period:period () in
        let cfg =
          Runner.config ~spec:spec_p ~algo:Algorithm.Gradient_sync
            ~horizon:600. ~seed:79 (Topology.ring 32)
        in
        let r = Runner.run cfg in
        [
          fmt period;
          fmt spec_p.Spec.kappa;
          fmt r.Runner.summary.Metrics.max_local;
          string_of_int r.Runner.messages;
        ])
      [ 0.5; 1.; 2.; 4. ]
  in
  print_table ~name:"e13b_period_sweep"
    ~title:"(b) benign local skew vs beacon period (ring:32): accuracy/cost"
    ~columns:
      [
        Table.column ~align:Table.Left "period";
        Table.column "kappa";
        Table.column "max local";
        Table.column "messages";
      ]
    ~rows

(* E14: searched adversaries vs crafted adversaries. The beam search over
   the adversary's move alphabet should roughly reproduce (or beat) the
   hand-crafted attacks — validating them — while never breaking the
   gradient algorithm's envelope. The printed plan strings read one move
   per segment: L/R/- for the fast half, >/</. for the delay bias. *)
let e14 () =
  header "E14" "Automated adversary search vs crafted attacks (line)";
  let plan_to_string plan =
    String.concat ""
      (List.map
         (fun m ->
           let f =
             match m.Gcs_adversary.Search.fast_side with
             | `Left -> "L"
             | `Right -> "R"
             | `None -> "-"
           in
           let b =
             match m.Gcs_adversary.Search.bias with
             | `Forward -> ">"
             | `Backward -> "<"
             | `Neutral -> "."
           in
           f ^ b)
         plan)
  in
  let rows =
    List.map
      (fun algo ->
        let n = 9 in
        let searched =
          Gcs_adversary.Search.search
            (Gcs_adversary.Search.default_config ~spec ~algo ~n ~segments:5
               ~beam:8 ~seed:83 ())
        in
        let crafted =
          Fan_lynch.attack (Fan_lynch.default_config ~spec ~algo ~n ~seed:83 ())
        in
        [
          Algorithm.kind_name algo;
          fmt searched.Gcs_adversary.Search.forced_local;
          fmt crafted.Fan_lynch.forced_local;
          plan_to_string searched.Gcs_adversary.Search.plan;
          fmt (Bounds.gradient_local_upper spec ~diameter:(n - 1));
        ])
      [ Algorithm.Gradient_sync; Algorithm.Tree_sync; Algorithm.Max_sync ]
  in
  print_table ~name:"e14_search_vs_crafted"
    ~title:"forced local skew at D = 8: search vs the Fan-Lynch construction"
    ~columns:
      [
        Table.column ~align:Table.Left "algorithm";
        Table.column "searched";
        Table.column "crafted";
        Table.column ~align:Table.Left "best plan";
        Table.column "envelope";
      ]
    ~rows

(* E15: estimation method ablation. With one-way beacons the skew quantum
   kappa must cover the full delay band (the receiver guesses the in-flight
   time); two-way round-trip estimation is self-calibrating, so kappa only
   needs to cover jitter and drift. On edges whose typical delay sits far
   from the band midpoint this decouples the achieved skew from the
   worst-case delay bound — the adaptivity theme of the follow-on GCS
   literature. *)
let e15 () =
  header "E15" "One-way vs two-way offset estimation (ring:24, wide band)";
  let graph = Topology.ring 24 in
  let rng = Prng.create ~seed:91 in
  let centers =
    Array.init 24 (fun _ -> Prng.uniform rng ~lo:0.4 ~hi:3.6)
  in
  let jitter = 0.1 in
  let edge_bounds e =
    Gcs_sim.Delay_model.bounds
      ~d_min:(centers.(e) -. jitter)
      ~d_max:(centers.(e) +. jitter)
  in
  let kappa_band = Spec.default_kappa ~u:3.8 ~rho:0.01 ~beacon_period:1. in
  let kappa_jitter =
    Spec.default_kappa ~u:(2. *. jitter) ~rho:0.01 ~beacon_period:1. +. 0.3
  in
  let run kappa override =
    let spec_k = Spec.make ~d_min:0.1 ~d_max:3.9 ~kappa () in
    let cfg =
      Runner.config ~spec:spec_k ~algo:Algorithm.Gradient_sync ?override
        ~delay_kind:(Runner.Per_edge_delays edge_bounds) ~horizon:600.
        ~seed:92 graph
    in
    Runner.run cfg
  in
  let rows =
    List.map
      (fun (name, kappa, override) ->
        let r = run kappa override in
        [
          name;
          fmt kappa;
          fmt r.Runner.summary.Metrics.max_local;
          fmt r.Runner.summary.Metrics.max_global;
          string_of_int r.Runner.messages;
        ])
      [
        ("one-way, band kappa", kappa_band, None);
        ("one-way, jitter kappa (unsound)", kappa_jitter, None);
        ( "two-way, jitter kappa",
          kappa_jitter,
          Some Gcs_core.Gradient_rtt.algorithm );
      ]
  in
  print_table ~name:"e15_estimation"
    ~title:
      "edges with random mean delays in [0.4, 3.6], jitter 0.1, band [0.1, 3.9]"
    ~columns:
      [
        Table.column ~align:Table.Left "estimation";
        Table.column "kappa";
        Table.column "max local";
        Table.column "max global";
        Table.column "messages";
      ]
    ~rows

(* E16: crash faults. A crashed node falls silent; survivors must keep
   their mutual skew bounded. The mechanism under test is estimate
   staleness expiry: without it, a live neighbor keeps extrapolating the
   dead clock, sees a phantom ever-lagging neighbor, and the blocking
   clause freezes it out of the fast trigger exactly when drift pressure
   makes racing necessary. *)
let e16 () =
  header "E16" "Crash tolerance and staleness expiry (ring:24, drift split)";
  let n = 24 in
  let graph = Topology.ring n in
  let drift v = if v < n / 2 then Drift.Extreme_high else Drift.Extreme_low in
  let horizon = 1500. in
  let run spec crashes =
    let fault_plan =
      Fault_plan.of_events
        (List.map (fun (node, at) -> Fault_plan.Node_crash { at; node }) crashes)
    in
    let r =
      Runner.run
        (Runner.config ~spec ~drift_of_node:drift ~fault_plan ~horizon
           ~warmup:0. ~seed:87 graph)
    in
    let alive v = not (List.mem_assoc v crashes) in
    Metrics.summarize ~alive graph r.Runner.samples ~after:(0.75 *. horizon)
  in
  let rows =
    List.map
      (fun (name, spec, crashes) ->
        let s = run spec crashes in
        [ name; fmt s.Metrics.max_local; fmt s.Metrics.max_global ])
      [
        ("no crashes", Spec.make (), []);
        ("crash @ slow side, expiry on", Spec.make (), [ (18, 300.) ]);
        ( "crash @ slow side, expiry off",
          Spec.make ~staleness_limit:1e9 (),
          [ (18, 300.) ] );
        ( "3 crashes, expiry on",
          Spec.make (),
          [ (4, 300.); (11, 500.); (18, 300.) ] );
      ]
  in
  print_table ~name:"e16_crash"
    ~title:"skew among surviving nodes (final quarter of a 1500-unit run)"
    ~columns:
      [
        Table.column ~align:Table.Left "scenario";
        Table.column "live local";
        Table.column "live global";
      ]
    ~rows

(* E17: scalability soak. End-to-end simulator throughput on growing rings
   (the headline result's D-sweeps need exactly these sizes to be cheap).
   Wall-clock time is measured around the full runner pipeline. *)
let e17 () =
  header "E17" "Scalability soak: gradient ring, 60 time units";
  let rows =
    List.map
      (fun n ->
        let graph = Topology.ring n in
        let cfg =
          Runner.config ~spec ~algo:Algorithm.Gradient_sync ~horizon:60.
            ~sample_period:5. ~warmup:30. ~seed:101 graph
        in
        let t0 = Unix.gettimeofday () in
        let r = Runner.run cfg in
        let dt = Unix.gettimeofday () -. t0 in
        [
          string_of_int n;
          string_of_int r.Runner.events;
          Table.fmt_float ~digits:2 (float_of_int r.Runner.events /. dt /. 1e6);
          Table.fmt_float ~digits:3 dt;
          fmt r.Runner.summary.Metrics.max_local;
        ])
      [ 64; 256; 1024; 4096 ]
  in
  print_table ~name:"e17_scalability"
    ~title:"simulator throughput (events are sends+delivers+timers+controls)"
    ~columns:
      [
        Table.column ~align:Table.Left "nodes";
        Table.column "events";
        Table.column "M events/s";
        Table.column "wall s";
        Table.column "max local";
      ]
    ~rows

(* E18: mobility. Delays track node motion (random waypoint); faster motion
   means faster-changing estimation errors, which eat into the deadband.
   The gradient algorithm should degrade smoothly with speed, not fall off
   a cliff. *)
let e18 () =
  header "E18" "Mobile delays: local skew vs node speed (geometric graph)";
  let rng = Prng.create ~seed:109 in
  let graph, _ = Topology.random_geometric ~n:30 ~radius:0.3 ~rng in
  let rows =
    List.map
      (fun speed ->
        let cfg =
          Runner.config ~spec ~algo:Algorithm.Gradient_sync
            ~delay_kind:Runner.Controlled_delays ~horizon:400. ~seed:110
            graph
        in
        let live = Runner.prepare cfg in
        let m =
          Gcs_sim.Mobility.random_waypoint ~n:30 ~speed ~horizon:400.
            ~rng:(Prng.create ~seed:111)
        in
        live.Runner.chooser :=
          Some (Gcs_sim.Mobility.delay_chooser m ~bounds:spec.Spec.delay);
        let r = Runner.complete live in
        [
          fmt speed;
          fmt r.Runner.summary.Metrics.max_local;
          fmt r.Runner.summary.Metrics.max_global;
        ])
      [ 0.; 0.02; 0.3; 2.; 8. ]
  in
  print_table ~name:"e18_mobility"
    ~title:"random-waypoint motion; delay = linear in current distance"
    ~columns:
      [
        Table.column ~align:Table.Left "speed";
        Table.column "max local";
        Table.column "max global";
      ]
    ~rows

(* E19: the parallel sharded runner. A 64-replicate sweep (the exact shape
   of every D-sweep and robustness table above) is run through
   Parallel_run once serially and once sharded across -jobs domains. The
   summaries must agree exactly — determinism under sharding is part of
   the contract — and the wall-clock ratio is the realized speedup (≈ the
   domain count on idle multicore hardware; 1x on a single-core box). *)
let e19 () =
  header "E19"
    (Printf.sprintf "Parallel sharded sweep: 64 replicates, -jobs %d" !jobs);
  let graph = Topology.ring 32 in
  let configs =
    Array.of_list
      (List.map
         (fun seed ->
           Runner.config ~spec ~algo:Algorithm.Gradient_sync ~horizon:200.
             ~seed graph)
         (Gcs_core.Replicate.seeds 64))
  in
  let timed jobs =
    let t0 = Unix.gettimeofday () in
    let rs = Gcs_core.Parallel_run.run ~jobs configs in
    (Unix.gettimeofday () -. t0, rs)
  in
  let t_serial, serial = timed 1 in
  let t_par, par = timed !jobs in
  let identical =
    serial = par
  in
  let m = Gcs_core.Parallel_run.merge par in
  let rows =
    [
      [ "1"; Table.fmt_float ~digits:3 t_serial; "1.00"; "-" ];
      [
        string_of_int !jobs;
        Table.fmt_float ~digits:3 t_par;
        Table.fmt_float ~digits:2 (t_serial /. t_par);
        (if identical then "yes" else "NO");
      ];
    ]
  in
  print_table ~name:"e19_parallel_sweep"
    ~title:"wall-clock for the same 64-config batch; results must be identical"
    ~columns:
      [
        Table.column ~align:Table.Left "jobs";
        Table.column "wall s";
        Table.column "speedup";
        Table.column "bit-identical";
      ]
    ~rows;
  Printf.printf
    "batch: %d runs, %d events, %d messages, %d dropped, %d clock jumps\n"
    (Array.length m.Gcs_core.Parallel_run.summaries)
    m.Gcs_core.Parallel_run.events m.Gcs_core.Parallel_run.messages
    m.Gcs_core.Parallel_run.dropped
    m.Gcs_core.Parallel_run.jumps.Lc.count;
  if not identical then begin
    prerr_endline "E19: parallel results diverged from serial results";
    exit 1
  end

(* E20: the fault battery. Every algorithm runs under the same composed
   fault plan — a partition isolating node 0, a state-wiping crash-recover
   of node 8, and a beacon-corruption window — and the recovery metrics say
   how hard each fault hit (worst transient skew on the affected edges) and
   how long re-convergence took after the heal. Free-run is the control: it
   never resynchronizes anything, so its transients persist, while gradient
   and tree should show finite time-to-resync for every healed episode. *)
let e20 () =
  header "E20" "Fault battery: partition + crash-recover + corruption";
  let module Fault_plan = Gcs_sim.Fault_plan in
  let module Fault_metrics = Gcs_core.Fault_metrics in
  let graph = Topology.ring 32 in
  let horizon = 600. in
  (* A tight kappa plus a fast/slow drift split makes the faults bite: the
     partition cuts the ring into its fast and slow halves (so they diverge
     at relative rate ~rho while cut), and the crashed node is in the slow
     half (gradient sync is max-driven, so a freewheeling slow node falls
     behind its steered neighbors). *)
  let spec_e20 = Spec.make ~kappa:0.5 () in
  let drift_of_node v =
    if v < 16 then Drift.Extreme_high else Drift.Extreme_low
  in
  let half = String.concat "," (List.init 16 string_of_int) in
  let plan =
    match
      Fault_plan.of_string
        (Printf.sprintf
           "partition@150:cut=%s;heal@250:cut=%s;\
            crash@300:node=24;recover@380:node=24:wipe;\
            corrupt@450..500:p=0.2:mag=3"
           half half)
    with
    | Ok p -> p
    | Error msg -> failwith ("E20 plan: " ^ msg)
  in
  let algos =
    [ Algorithm.Gradient_sync; Algorithm.Tree_sync; Algorithm.Free_run ]
  in
  let rows =
    List.map
      (fun algo ->
        let cfg =
          Runner.config ~spec:spec_e20 ~algo ~drift_of_node ~horizon ~seed:23
            ~fault_plan:plan graph
        in
        let r = Runner.run cfg in
        let rep = Option.get r.Runner.fault_report in
        let resync =
          match Fault_metrics.max_time_to_resync rep with
          | Some t -> fmt t
          | None -> "never"
        in
        [
          Algorithm.kind_name algo;
          fmt (Fault_metrics.worst_transient rep);
          resync;
          string_of_int rep.Gcs_core.Fault_metrics.dropped_faults;
          string_of_int rep.Gcs_core.Fault_metrics.corrupted;
          fmt r.Runner.summary.Metrics.max_local;
        ])
      algos
  in
  print_table ~name:"e20_fault_battery"
    ~title:
      "recovery under the standard battery (ring:32 split in half, kappa 0.5, \
       horizon 600)"
    ~columns:
      [
        Table.column ~align:Table.Left "algorithm";
        Table.column "worst transient";
        Table.column "time to resync";
        Table.column "fault drops";
        Table.column "corrupted";
        Table.column "max local";
      ]
    ~rows

(* Wall time of the modes of one overhead measurement, taken the way
   perfbench's [twin_cost] takes a sink's: [passes] passes each run every
   mode once, in an order that alternates between passes (mode 0, the bare
   run, first and then last), each run after a full compaction so no run
   inherits another's heap. A mode's wall is its fastest run, the one other
   work on the host lengthened least. Returns the walls and each mode's
   last result. *)
let fastest_walls ~passes modes =
  let n = Array.length modes in
  let walls = Array.make n infinity and results = Array.make n None in
  for k = 0 to passes - 1 do
    for j = 0 to n - 1 do
      let i = if k mod 2 = 0 then j else n - 1 - j in
      Gc.compact ();
      let t0 = Unix.gettimeofday () in
      let r = modes.(i) () in
      walls.(i) <- Float.min walls.(i) (Unix.gettimeofday () -. t0);
      results.(i) <- Some r
    done
  done;
  (walls, Array.map Option.get results)

(* Percent wall time mode [i] adds to the bare mode 0. *)
let overhead_pct walls i = 100. *. ((walls.(i) /. walls.(0)) -. 1.)

(* E21: observer overhead. The same ring:48 config runs bare and under
   several capture modes. Observers are pure — they never touch algorithm
   state or randomness — so every instrumented summary must be identical to
   the bare one (hard assertion, exit 1), and the always-on "flight
   recorder" mode (bounded ring event log + series + sampled profiler) must
   cost < 10% extra wall time (also asserted; the verdict is printed so the
   target is auditable in the output), the fastest flight run against the
   fastest bare run of [fastest_walls]. Runs are also rendered
   through the shared Report.result_row schema, the same rows the sweep CSV
   emits. *)
let e21 () =
  header "E21" "Observer overhead: capture modes vs bare run (ring:48)";
  let module Capture = Gcs_obs.Capture in
  let module Event_log = Gcs_obs.Event_log in
  let module Series = Gcs_obs.Series in
  let module Profiler = Gcs_obs.Profiler in
  let module Report = Gcs_core.Report in
  let graph = Topology.ring 48 in
  let make_cfg obs =
    Runner.config ~spec ~algo:Algorithm.Gradient_sync ~horizon:1000. ~seed:77
      ~obs graph
  in
  (* The asserted mode is the always-on "flight recorder": bounded ring
     event log, coarse series cadence, sampled profiler. The unbounded
     export log pays extra fresh-memory traffic proportional to the run
     and is reported but not held to the target. *)
  let flight =
    { (Capture.full ~series_period:5. ()) with events_capacity = Some 4096 }
  in
  let modes =
    [|
      ("bare", Capture.none);
      ("flight", flight);
      ("full", Capture.full ~series_period:2. ());
      ("events", { Capture.none with events = true });
    |]
  in
  let cfgs = Array.map (fun (_, obs) -> make_cfg obs) modes in
  let n = Array.length modes in
  let passes = 9 in
  let walls, results =
    fastest_walls ~passes (Array.map (fun cfg () -> Runner.run cfg) cfgs)
  in
  let r_bare = results.(0) in
  (* Control events of the series probe are counted in [events], so compare
     the skew summaries, which instrumentation must not perturb. *)
  let summaries_equal i = r_bare.Runner.summary = results.(i).Runner.summary in
  let log_lines i =
    match results.(i).Runner.obs.Capture.event_log with
    | Some log -> Event_log.recorded log
    | None -> 0
  in
  let series_points i =
    match results.(i).Runner.obs.Capture.series with
    | Some s -> Series.length s
    | None -> 0
  in
  print_table ~name:"e21_observer_overhead"
    ~title:
      (Printf.sprintf
         "capture modes vs bare, fastest of %d alternating passes (flight = \
          ring log + series + profiler)"
         passes)
    ~columns:
      [
        Table.column ~align:Table.Left "mode";
        Table.column "wall s";
        Table.column "overhead %";
        Table.column "log lines";
        Table.column "series pts";
        Table.column "summary identical";
      ]
    ~rows:
      (List.init n (fun i ->
           let name, _ = modes.(i) in
           [
             name;
             Table.fmt_float ~digits:4 walls.(i);
             (if i = 0 then "-"
              else Table.fmt_float ~digits:1 (overhead_pct walls i));
             string_of_int (log_lines i);
             string_of_int (series_points i);
             (if i = 0 then "-" else if summaries_equal i then "yes" else "NO");
           ]));
  Printf.printf "result rows (shared sweep schema):\n";
  print_endline (Gcs_util.Csv.render_row (Report.result_header ()));
  print_endline
    (Gcs_util.Csv.render_row (Report.result_row ~label:"ring:48" cfgs.(0) r_bare));
  print_endline
    (Gcs_util.Csv.render_row
       (Report.result_row ~label:"ring:48" cfgs.(1) results.(1)));
  (match results.(1).Runner.obs.Capture.profile with
  | None -> ()
  | Some rep ->
      Printf.printf "profiler (flight):\n";
      List.iter (fun l -> Printf.printf "  %s\n" l) (Profiler.lines rep));
  let flight_overhead = overhead_pct walls 1 in
  Printf.printf "flight-recorder overhead: %.1f%% (target <10%%: %s)\n"
    flight_overhead
    (if flight_overhead < 10. then "yes" else "NO");
  let diverged = ref false in
  for i = 1 to n - 1 do
    if not (summaries_equal i) then begin
      Printf.eprintf "E21: %s summary diverged from the bare run\n"
        (fst modes.(i));
      diverged := true
    end
  done;
  if !diverged then exit 1;
  if flight_overhead >= 10. then begin
    prerr_endline "E21: flight-recorder overhead exceeded the 10% target";
    exit 1
  end

(* E22: warm-vs-cold cache-aware sweep. The same >= 200-cell faulted
   campaign runs twice against one experiment store: the cold pass
   simulates and persists every cell, the warm pass must be served
   entirely from the store — zero misses, zero engine dispatches, rows
   byte-identical — and at least 10x faster than simulating. *)
let e22 () =
  header "E22" "Experiment store: warm vs cold sweep (cache-aware execution)";
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "gcs-e22-%d" (Unix.getpid ()))
  in
  (* Fresh store for every invocation: stale entries would turn the cold
     pass into a warm one and void the measurement. *)
  if Sys.file_exists dir then
    Array.iter
      (fun f -> Sys.remove (Filename.concat dir f))
      (Sys.readdir dir);
  let plan =
    match
      Gcs_sim.Fault_plan.of_string "partition@15:cut=0,1,2;heal@25:cut=0,1,2"
    with
    | Ok p -> p
    | Error e -> failwith e
  in
  let horizon = 60. in
  let cells =
    List.concat_map
      (fun topo ->
        List.concat_map
          (fun algo ->
            List.map (fun seed -> (topo, algo, seed))
              (Gcs_core.Replicate.seeds 50))
          [ Algorithm.Gradient_sync; Algorithm.Tree_sync ])
      [ Topology.Ring 12; Topology.Line 13 ]
  in
  let keys =
    Array.of_list
      (List.map
         (fun (topo, algo, seed) ->
           Runner.store_key ~fault_plan:plan ~spec ~topology:topo ~algo
             ~horizon ~seed ())
         cells)
  in
  let rows_of outcomes =
    List.mapi
      (fun i (topo, algo, seed) ->
        Gcs_core.Report.outcome_row
          ~label:(Topology.spec_name topo)
          ~algo:(Algorithm.kind_name algo) ~seed outcomes.(i))
      cells
  in
  let pass () =
    let store = Gcs_store.Store.open_ ~create:true dir in
    let t0 = Unix.gettimeofday () in
    let outcomes, stats =
      Gcs_core.Parallel_run.run_cached ~jobs:!jobs ~store keys
    in
    let wall = Unix.gettimeofday () -. t0 in
    Gcs_store.Store.close store;
    (wall, outcomes, stats)
  in
  let t_cold, cold_out, cold = pass () in
  let t_warm, warm_out, warm = pass () in
  let identical = rows_of cold_out = rows_of warm_out in
  let speedup = t_cold /. t_warm in
  let row label wall (s : Gcs_core.Parallel_run.cache_stats) =
    [
      label;
      Table.fmt_float ~digits:3 wall;
      string_of_int s.Gcs_core.Parallel_run.hits;
      string_of_int s.Gcs_core.Parallel_run.misses;
      string_of_int s.Gcs_core.Parallel_run.fresh_dispatches;
    ]
  in
  print_table ~name:"e22_store_warm_cold"
    ~title:
      (Printf.sprintf
         "same %d-cell faulted sweep, cold then warm against one store"
         (Array.length keys))
    ~columns:
      [
        Table.column ~align:Table.Left "pass";
        Table.column "wall s";
        Table.column "hits";
        Table.column "misses";
        Table.column "fresh dispatches";
      ]
    ~rows:[ row "cold" t_cold cold; row "warm" t_warm warm ];
  Printf.printf "rows byte-identical: %s; warm/cold speedup: %.1fx\n"
    (if identical then "yes" else "NO")
    speedup;
  let fail msg =
    prerr_endline ("E22: " ^ msg);
    exit 1
  in
  if cold.Gcs_core.Parallel_run.misses <> Array.length keys then
    fail "cold pass was not fully cold (stale store?)";
  if warm.Gcs_core.Parallel_run.misses <> 0 then
    fail "warm pass missed the cache";
  if warm.Gcs_core.Parallel_run.fresh_dispatches <> 0 then
    fail "warm pass dispatched engine events";
  if not identical then fail "warm rows diverged from cold rows";
  if speedup < 10. then
    fail (Printf.sprintf "warm/cold speedup %.1fx below the 10x target" speedup)

(* E8: substrate micro-benchmarks (Bechamel). *)
let e8 () =
  header "E8" "Substrate micro-benchmarks (ns per operation, OLS estimate)";
  let open Bechamel in
  let heap_bench () =
    let h = Heap.create () in
    let key = Heap.key () in
    for i = 0 to 999 do
      key.Heap.prio <- float_of_int ((i * 7919) mod 1000);
      Heap.push h key ~seq:i i
    done;
    while not (Heap.is_empty h) do
      ignore (Heap.pop_min h)
    done
  in
  let grid = Topology.grid ~rows:32 ~cols:32 in
  let bfs_bench () = ignore (Shortest_path.bfs grid ~src:0) in
  let clock =
    let rng = Prng.create ~seed:59 in
    Drift.make_clock
      (Drift.Random_walk { step = 1.; sigma = 0.002 })
      ~band:(Drift.band ~rho:0.01) ~t0:0. ~horizon:1000. ~rng
  in
  let clock_bench () = ignore (Hc.value clock ~now:523.7) in
  let offsets = Array.init 8 (fun i -> (float_of_int i -. 3.5) *. 1.3) in
  let trigger_bench () =
    ignore (Gradient_sync.fast_trigger ~kappa:2. ~offsets)
  in
  let engine_bench () =
    let cfg =
      Runner.config ~spec ~algo:Algorithm.Gradient_sync ~horizon:20.
        ~sample_period:5. ~warmup:0. ~seed:61 (Topology.ring 16)
    in
    ignore (Runner.run cfg)
  in
  let tests =
    Test.make_grouped ~name:"gcs"
      [
        Test.make ~name:"heap-1k-push-pop" (Staged.stage heap_bench);
        Test.make ~name:"bfs-grid-32x32" (Staged.stage bfs_bench);
        Test.make ~name:"clock-query" (Staged.stage clock_bench);
        Test.make ~name:"fast-trigger" (Staged.stage trigger_bench);
        Test.make ~name:"sim-ring16-20s" (Staged.stage engine_bench);
      ]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg_b = Benchmark.cfg ~limit:300 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg_b [ instance ] tests in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols instance raw in
  let rows =
    Hashtbl.fold
      (fun name ols_result acc ->
        let est =
          match Analyze.OLS.estimates ols_result with
          | Some (x :: _) -> x
          | Some [] | None -> nan
        in
        let r2 =
          match Analyze.OLS.r_square ols_result with Some r -> r | None -> nan
        in
        [ name; Table.fmt_float ~digits:1 est; Table.fmt_float ~digits:4 r2 ]
        :: acc)
      results []
    |> List.sort compare
  in
  print_table ~name:"e8_micro" ~title:"time per run"
    ~columns:
      [
        Table.column ~align:Table.Left "benchmark";
        Table.column "ns/run";
        Table.column "r²";
      ]
    ~rows

(* E23: conformance-monitor overhead. The gcs.check online monitors ride
   the observer multiplexer and check rate + monotonicity at every event;
   the acceptance target is that this flight-recorder mode stays under
   10% wall-time overhead (measured by [fastest_walls], as in E21) and
   perturbs no run summary. The skew-checking mode additionally
   scans each node's neighborhood per event and is reported but not held
   to the target. *)
let e23 () =
  header "E23" "Monitor overhead: online invariant monitors vs bare (ring:48)";
  let module Monitor = Gcs_check.Monitor in
  let module Check_run = Gcs_check.Check_run in
  let graph = Topology.ring 48 in
  let algo = Algorithm.Gradient_sync in
  let cfg = Runner.config ~spec ~algo ~horizon:1000. ~seed:77 graph in
  let envelope = Check_run.default_spec spec algo in
  let with_skew =
    Check_run.default_spec
      ~skew_bound:
        (Bounds.gradient_local_upper spec
           ~diameter:(Shortest_path.diameter graph))
      ~after:250. spec algo
  in
  let modes =
    [|
      ("bare", None);
      ("monitor", Some envelope);
      ("monitor+skew", Some with_skew);
    |]
  in
  let n = Array.length modes in
  let passes = 9 in
  let walls, runs =
    fastest_walls ~passes
      (Array.map
         (fun (_, monitor) () ->
           match monitor with
           | None -> (Runner.run cfg, None)
           | Some monitor ->
               let checked = Check_run.run ~monitor cfg in
               (checked.Check_run.result, Some checked))
         modes)
  in
  let results = Array.map fst runs and checks = Array.map snd runs in
  let r_bare = results.(0) in
  let summaries_equal i = r_bare.Runner.summary = results.(i).Runner.summary in
  let events_checked i =
    match checks.(i) with
    | Some c -> c.Check_run.events_checked
    | None -> 0
  in
  let violated i =
    match checks.(i) with
    | Some { Check_run.violation = Some _; _ } -> true
    | _ -> false
  in
  print_table ~name:"e23_monitor_overhead"
    ~title:
      (Printf.sprintf "online monitors vs bare, fastest of %d alternating passes"
         passes)
    ~columns:
      [
        Table.column ~align:Table.Left "mode";
        Table.column "wall s";
        Table.column "overhead %";
        Table.column "events checked";
        Table.column "violation";
        Table.column "summary identical";
      ]
    ~rows:
      (List.init n (fun i ->
           let name, _ = modes.(i) in
           [
             name;
             Table.fmt_float ~digits:4 walls.(i);
             (if i = 0 then "-"
              else Table.fmt_float ~digits:1 (overhead_pct walls i));
             string_of_int (events_checked i);
             (if i = 0 then "-" else if violated i then "YES" else "none");
             (if i = 0 then "-" else if summaries_equal i then "yes" else "NO");
           ]));
  let mon_overhead = overhead_pct walls 1 in
  Printf.printf "monitor overhead: %.1f%% (target <10%%: %s)\n" mon_overhead
    (if mon_overhead < 10. then "yes" else "NO");
  let failed = ref false in
  for i = 1 to n - 1 do
    if not (summaries_equal i) then begin
      Printf.eprintf "E23: %s summary diverged from the bare run\n"
        (fst modes.(i));
      failed := true
    end;
    if violated i then begin
      Printf.eprintf "E23: %s reported a violation on a conforming run\n"
        (fst modes.(i));
      failed := true
    end
  done;
  if !failed then exit 1;
  if mon_overhead >= 10. then begin
    prerr_endline "E23: monitor overhead exceeded the 10% target";
    exit 1
  end

(* E24: explorer throughput and exhaustiveness. The gcs.explore model
   checker re-simulates every decision-trace prefix from time zero, so its
   cost is (prefixes x mean run cost); this experiment reports prefixes
   per second on the two golden instances with dedup off and on, and
   cross-checks the exact visited/execution counts the proof claim rests
   on (they are pinned in the tier-1 test suite). *)
let e24 () =
  header "E24" "Explorer throughput: exhaustive enumeration on golden instances";
  let module Choice = Gcs_explore.Choice in
  let module Instance = Gcs_explore.Instance in
  let module Explorer = Gcs_explore.Explorer in
  let instances =
    [|
      ( "line:2/delay/d3",
        Instance.make ~topology:(Topology.Line 2) ~alphabet:Choice.delay_only
          (),
        false, 39, 27 );
      ( "ring:3/extreme/d3",
        Instance.make (), false, 84, 64 );
      ( "ring:3/extreme/d3 +dedup",
        Instance.make (), true, 52, 32 );
    |]
  in
  let failed = ref false in
  let rows =
    Array.to_list instances
    |> List.map (fun (name, inst, dedup, want_visited, want_execs) ->
           let t0 = Unix.gettimeofday () in
           let o = Explorer.explore ~dedup inst in
           let wall = Unix.gettimeofday () -. t0 in
           let s = o.Explorer.stats in
           let proved = o.Explorer.verdict = Explorer.Proved in
           let counts_ok =
             s.Explorer.states_visited = want_visited
             && s.Explorer.executions = want_execs
           in
           if not (proved && counts_ok) then begin
             Printf.eprintf
               "E24: %s expected proved with %d/%d, got %d/%d\n" name
               want_visited want_execs s.Explorer.states_visited
               s.Explorer.executions;
             failed := true
           end;
           [
             name;
             string_of_int s.Explorer.states_visited;
             string_of_int s.Explorer.executions;
             string_of_int s.Explorer.pruned;
             string_of_int s.Explorer.events_checked;
             Table.fmt_float ~digits:4 wall;
             Table.fmt_float ~digits:0
               (float_of_int s.Explorer.states_visited /. wall);
             (if proved then "proved" else "NO");
           ])
  in
  print_table ~name:"e24_explore_throughput"
    ~title:"exhaustive enumeration, one pass per instance"
    ~columns:
      [
        Table.column ~align:Table.Left "instance";
        Table.column "prefixes";
        Table.column "executions";
        Table.column "pruned";
        Table.column "events checked";
        Table.column "wall s";
        Table.column "prefixes/s";
        Table.column "verdict";
      ]
    ~rows;
  if !failed then exit 1

(* E25: what does fault containment buy, and what does it cost? Plain
   gradient and the ft variant run the same Byzantine batteries: f = 0
   (benign control — the filter must be free), f = 1, f = 2 liars drawn by
   Check_run.byz_plan with lies 20x kappa. Reported skew is over correct
   nodes only; "bound" is the weakened containment bound the online
   monitor enforces. Plain gradient should blow through it under
   ahead-lies while ft-gradient stays under with margin. *)
let e25 () =
  header "E25" "Byzantine containment: gradient vs ft-gradient under liars";
  let module Check_run = Gcs_check.Check_run in
  let spec_e25 = Check_run.attack_spec () in
  let graph = Topology.ring 16 in
  let horizon = 400. in
  let seeds = [ 1; 7920; 15839 ] in
  let run_one ~algo ~f ~seed =
    let fault_plan =
      if f = 0 then None
      else
        Some
          (Check_run.byz_plan ~seed ~horizon ~nodes:16 ~f
             ~kappa:spec_e25.Spec.kappa)
    in
    let byz =
      match fault_plan with
      | None -> []
      | Some p -> Gcs_sim.Fault_plan.byzantine_nodes p
    in
    let cfg =
      Runner.config ~spec:spec_e25 ~algo ~horizon ~seed ?fault_plan graph
    in
    let r = Runner.run cfg in
    let is_byz = Array.make 16 false in
    List.iter (fun v -> is_byz.(v) <- true) byz;
    match
      Metrics.summarize_opt
        ~alive:(fun v -> not is_byz.(v))
        graph r.Runner.samples ~after:(horizon /. 4.)
    with
    | Some s -> (s.Metrics.max_local, s.Metrics.max_global)
    | None -> (0., 0.)
  in
  let rows =
    List.concat_map
      (fun f ->
        let bound =
          Check_run.containment_bound spec_e25 ~f:(max 1 f)
        in
        List.map
          (fun algo ->
            let locals, globals =
              List.split (List.map (fun seed -> run_one ~algo ~f ~seed) seeds)
            in
            let worst_local = List.fold_left Float.max 0. locals in
            let worst_global = List.fold_left Float.max 0. globals in
            [
              string_of_int f;
              Algorithm.kind_name algo;
              fmt worst_local;
              fmt worst_global;
              fmt bound;
              (if worst_local <= bound then "contained" else "VIOLATED");
            ])
          [ Algorithm.Gradient_sync; Algorithm.Ft_gradient_sync (max 1 f) ])
      [ 0; 1; 2 ]
  in
  print_table ~name:"e25_byzantine_containment"
    ~title:
      "worst correct-node skew over 3 seeds (ring:16, lies 20x kappa over \
       the middle half, horizon 400)"
    ~columns:
      [
        Table.column "liars f";
        Table.column ~align:Table.Left "algorithm";
        Table.column "max correct local";
        Table.column "max correct global";
        Table.column "containment bound";
        Table.column ~align:Table.Left "verdict";
      ]
    ~rows

(* E26: the million-node engine core. Two parts. (1) Identity: the region
   count is an execution strategy, not semantics — a faulted golden run at
   every region count must reproduce the serial reference bit for bit (the
   full battery, including Byzantine rows and the observation stream,
   lives in test/test_region_parallel.ml; this is the standing smoke row).
   (2) Throughput: a raw-engine soak on grid:1000x1000 — one million
   nodes, each beaconing to its neighbors once per unit of hardware time —
   reporting events/sec serial vs region-parallel. The speedup is
   informational on a single-core host (conservative windowed execution
   cannot beat serial without real parallelism), so the regression warning
   fires only where multicore is available. *)
let e26 () =
  header "E26" "Million-node engine core: region-parallel identity and soak";
  let module Fault_plan = Gcs_sim.Fault_plan in
  let module Engine = Gcs_sim.Engine in
  let module Dm = Gcs_sim.Delay_model in
  (* Part 1: identity on the faulted golden ring. *)
  let plan =
    match
      Fault_plan.of_string
        "partition@20:cut=0; heal@40:cut=0; crash@50:node=5; \
         recover@60:node=5:wipe; corrupt@30..45:p=0.3:mag=1"
    with
    | Ok p -> p
    | Error msg -> failwith ("E26 plan: " ^ msg)
  in
  let identity_cfg ~regions =
    Runner.config
      ~spec:(Spec.make ~kappa:0.5 ())
      ~drift_of_node:(fun v ->
        if v < 12 then Drift.Extreme_high else Drift.Extreme_low)
      ~horizon:80. ~seed:7 ~fault_plan:plan ~regions (Topology.ring 24)
  in
  let reference = Runner.run (identity_cfg ~regions:1) in
  let divergent = ref 0 in
  let identity_rows =
    List.map
      (fun regions ->
        let r = Runner.run (identity_cfg ~regions) in
        let same =
          Runner.outcome r = Runner.outcome reference
          && r.Runner.samples = reference.Runner.samples
          && r.Runner.events = reference.Runner.events
        in
        if not same then incr divergent;
        [
          string_of_int regions;
          string_of_int r.Runner.events;
          fmt r.Runner.summary.Metrics.max_local;
          (if same then "identical" else "DIVERGED");
        ])
      [ 1; 2; 4 ]
  in
  print_table ~name:"e26_identity"
    ~title:"faulted ring:24 vs serial reference (bit-for-bit)"
    ~columns:
      [
        Table.column "regions";
        Table.column "events";
        Table.column "max local";
        Table.column ~align:Table.Left "verdict";
      ]
    ~rows:identity_rows;
  if !divergent > 0 then begin
    Printf.eprintf "E26: %d region count(s) diverged\n" !divergent;
    exit 1
  end;
  (* Part 2: the soak. Raw engine, no metrics probe, no store, no diameter
     computation — this measures the event core alone. *)
  let rows_g = 1000 and cols_g = 1000 in
  let graph = Topology.grid ~rows:rows_g ~cols:cols_g in
  let n = Graph.n graph in
  let horizon = 3.0 and period = 1.0 in
  let delays = Dm.uniform (Dm.bounds ~d_min:0.5 ~d_max:1.5) in
  let make_node _ =
    {
      Engine.on_init = (fun api -> api.Engine.set_timer ~after:period ~tag:0);
      on_message = (fun _ ~port:_ () -> ());
      on_timer =
        (fun api ~tag:_ ->
          for p = 0 to api.Engine.ports - 1 do
            api.Engine.send ~port:p ()
          done;
          api.Engine.set_timer ~after:period ~tag:0);
    }
  in
  let soak ~regions =
    let clocks = Array.init n (fun _ -> Hc.create ~t0:0. ~rate:1. ()) in
    let t_build = Unix.gettimeofday () in
    let engine =
      Engine.of_config
        (Engine.config ~regions ~graph ~clocks ~delays
           ~rng:(Prng.create ~seed:3) ~make_node ~t0:0. ())
    in
    let t_run = Unix.gettimeofday () in
    Engine.run_until engine horizon;
    let dt = Unix.gettimeofday () -. t_run in
    ( Engine.events_processed engine,
      Engine.messages_sent engine,
      Engine.regions engine,
      t_run -. t_build,
      dt )
  in
  let multicore = Domain.recommended_domain_count () > 1 in
  let par_regions =
    if multicore then min 8 (Domain.recommended_domain_count ()) else 4
  in
  let ((s_ev, s_msg, _, _, s_dt) as serial) = soak ~regions:1 in
  let ((p_ev, p_msg, _, _, p_dt) as parallel) = soak ~regions:par_regions in
  (* Counters are part of the identity contract too. *)
  if p_ev <> s_ev || p_msg <> s_msg then begin
    Printf.eprintf "E26: soak counters diverged for x%d\n" par_regions;
    exit 1
  end;
  print_table ~name:"e26_soak"
    ~title:
      (Printf.sprintf
         "grid:%dx%d (%d nodes, %d edges), horizon %g, beacon period %g"
         rows_g cols_g n (Graph.m graph) horizon period)
    ~columns:
      [
        Table.column "regions";
        Table.column "events";
        Table.column "build s";
        Table.column "run s";
        Table.column "events/sec";
      ]
    ~rows:
      (List.map
         (fun (ev, _, eff, build, dt) ->
           [
             string_of_int eff;
             string_of_int ev;
             Table.fmt_float ~digits:2 build;
             Table.fmt_float ~digits:2 dt;
             Printf.sprintf "%.0f" (float_of_int ev /. Float.max 1e-9 dt);
           ])
         [ serial; parallel ]);
  if multicore && p_dt > s_dt then
    Printf.eprintf
      "E26: x%d slower than serial on a multicore host (%.2fs vs %.2fs, %d \
       events)\n"
      par_regions p_dt s_dt p_ev

(* E27: the live transport subsystem. One topology and spec executed twice
   — as four real UDP processes on loopback (wall clock, real sockets,
   real scheduling jitter) and as a simulation — with both results flowing
   through the same Report.result_row schema and the same summary
   comparison against the predicted gradient bound. The two executions
   share the plan semantics and the spec but not randomness or timing, so
   the claim is not bit-identity (that is the sim-shim property in
   test/test_net.ml); it is that a real execution of the very same
   algorithm code lands inside the same predicted envelope the simulation
   does. Wall clock: the live leg takes ~horizon seconds of real time. *)
let e27 () =
  header "E27" "Live UDP vs simulated: same spec, one report path";
  let module Live_run = Gcs_net.Live_run in
  let spec_e27 = Spec.make ~d_min:0.005 ~d_max:0.02 ~beacon_period:0.25 () in
  let horizon = 6. and sample_period = 0.25 and seed = 7 in
  let lcfg =
    Live_run.config ~topology:(Topology.Ring 4) ~algo:Algorithm.Gradient_sync
      ~spec:spec_e27 ~horizon ~sample_period ~seed
      ~base_port:(21000 + (Unix.getpid () mod 20000))
      ()
  in
  let graph = Live_run.build_graph lcfg in
  let pattern =
    match Drift.pattern_of_string "random" with
    | Ok p -> p
    | Error msg -> failwith ("E27 drift: " ^ msg)
  in
  let scfg =
    Runner.config ~spec:spec_e27 ~algo:Algorithm.Gradient_sync
      ~drift_of_node:(fun _ -> pattern)
      ~horizon ~sample_period ~warmup:lcfg.Live_run.warmup ~seed graph
  in
  let r_sim = Runner.run scfg in
  let r_live = Live_run.run lcfg in
  let bound =
    Bounds.gradient_local_upper spec_e27
      ~diameter:(Shortest_path.diameter graph)
  in
  let module Report = Gcs_core.Report in
  Printf.printf "\n%s\n"
    (Gcs_util.Csv.render_row (Report.result_header ()));
  Printf.printf "%s\n"
    (Gcs_util.Csv.render_row (Report.result_row ~label:"sim:ring:4" scfg r_sim));
  Printf.printf "%s\n"
    (Gcs_util.Csv.render_row
       (Report.result_row ~label:"live:ring:4" scfg r_live));
  let row label (r : Runner.result) =
    [
      label;
      fmt r.Runner.summary.Metrics.max_local;
      fmt r.Runner.summary.Metrics.max_global;
      fmt bound;
      string_of_int r.Runner.messages;
      string_of_int r.Runner.dispatches;
      (if r.Runner.summary.Metrics.max_local <= bound then "within"
       else "EXCEEDED");
    ]
  in
  print_table ~name:"e27_live_vs_sim"
    ~title:
      (Printf.sprintf
         "ring:4, beacon period %gs, delay %g..%gs, horizon %gs, seed %d"
         spec_e27.Spec.beacon_period (Spec.d_min spec_e27)
         (Spec.d_max spec_e27) horizon seed)
    ~columns:
      [
        Table.column ~align:Table.Left "execution";
        Table.column "max local";
        Table.column "max global";
        Table.column "predicted bound";
        Table.column "messages";
        Table.column "dispatches";
        Table.column ~align:Table.Left "verdict";
      ]
    ~rows:[ row "simulated" r_sim; row "live UDP x4" r_live ];
  if r_live.Runner.summary.Metrics.max_local > bound then begin
    Printf.eprintf "E27: live execution exceeded the predicted bound\n";
    exit 1
  end

(* E28: dynamic networks — the skew on a freshly formed edge must decay
   from (at most) the fresh allowance down to the static gradient bound
   within the predicted stabilization time allow0 / tighten_rate (the
   dynamic-GCS shape of Kuhn-Lenzen-Locher-Oshman), and the edge-age
   conformance monitor separates the algorithms under the very same churn
   plan. Setup: a line in three sections at three drift rates — fast,
   a two-node mid pair, slow; both section-boundary edges go down
   mid-run, the sections drift apart while disconnected, and the edges
   re-form with skews just inside the fresh bound. The dynamic gradient
   discounts every fresh edge by its decaying allowance: nothing chases,
   settled sections stay settled, and the fresh-edge skews track the
   allowance down to the static bound. The static gradient has no notion
   of edge age: the mid pair's left node chases the fast section at full
   speed while its right node is *anchored* — the level-set trigger
   blocks a node whose other neighbor trails by more than any separating
   level — and because the tear opens faster than the slow section can
   catch up, the long-settled mid edge is torn open past the static
   bound, and the monitor catches it. *)
let e28 () =
  header "E28" "Dynamic networks: fresh-edge skew decay, edge-age conformance";
  let module Check_run = Gcs_check.Check_run in
  let module Monitor = Gcs_check.Monitor in
  let module Churn_plan = Gcs_sim.Churn_plan in
  let module Fault_plan = Gcs_sim.Fault_plan in
  let module Fault_metrics = Gcs_core.Fault_metrics in
  let module Dynamic_gradient = Gcs_core.Dynamic_gradient in
  let spec28 = Check_run.attack_spec () in
  let n = 24 in
  let graph = Topology.line n in
  let diameter = Shortest_path.diameter graph in
  (* Fast section [0..17], mid pair [18,19], slow section [20..23]. The
     slow section is kept short on purpose: it is the only side that has
     to cascade upward when its boundary edge re-forms (the fast side is
     ahead, nobody there chases), and the chase-chain lag it leaks onto
     the mid pair grows with its length — long enough to anchor, short
     enough that the dynamic gradient's settled edges stay clear of the
     static bound. *)
  let mid_lo = 18 in
  let mid_hi = 19 in
  let cuts = [ (mid_lo - 1, mid_lo); (mid_hi, mid_hi + 1) ] in
  let allow0 = Dynamic_gradient.fresh_allowance spec28 ~diameter in
  let rate = Dynamic_gradient.tighten_rate spec28 in
  let settled = Bounds.gradient_local_upper spec28 ~diameter in
  let stabilization = allow0 /. rate in
  (* Startup edges are born settled (see {!Dynamic_gradient}), so the cut
     can start mid-run with every surviving edge already held to the
     settled bound. The mid pair drifts at rho/2, so both boundary gaps
     open at rho/2 while disconnected; the down window is sized so they
     re-form well inside the fresh bound allow0 + settled but deep
     enough that the anchored tear on the settled mid edge — which opens
     at ~mu while the slow section only closes its gap at ~mu - rho/2 —
     peaks past the settled bound before the anchor releases. *)
  let down = 60. in
  let form = down +. 560. in
  let horizon = form +. stabilization +. 100. in
  let churn =
    Churn_plan.of_processes
      [
        Churn_plan.Edge_down { at = down; edges = Fault_plan.Edges cuts };
        Churn_plan.Edge_up { at = form; edges = Fault_plan.Edges cuts };
      ]
  in
  let plan =
    match Churn_plan.compile churn ~graph ~seed:1 ~horizon with
    | Some p -> p
    | None -> failwith "E28: churn plan compiled to nothing"
  in
  let ea =
    {
      (Check_run.edge_age_bounds spec28 ~diameter) with
      Monitor.windows = Churn_plan.up_windows plan ~graph ~horizon;
    }
  in
  let run_one algo =
    let cfg =
      Runner.config ~spec:spec28 ~algo ~horizon ~seed:1 ~fault_plan:plan
        ~drift_of_node:(fun v ->
          if v < mid_lo then Drift.Extreme_high
          else if v <= mid_hi then
            Drift.Constant (1. +. (spec28.Spec.rho /. 2.))
          else Drift.Extreme_low)
        graph
    in
    let monitor = Check_run.default_spec ~edge_age:ea spec28 algo in
    let checked = Check_run.run ~monitor cfg in
    let report =
      Fault_metrics.evaluate ~spec:spec28 ~graph
        ~samples:checked.Check_run.result.Runner.samples
        ~episodes:(Fault_plan.episodes plan graph)
        ~dropped_faults:0 ~duplicated:0 ~corrupted:0 ()
    in
    (* One partition episode per cut edge, all healing at [form]: merge
       their post-heal curves pointwise (same sample grid) into the skew
       of the worst fresh edge at each age. *)
    let decay =
      match report.Fault_metrics.episodes with
      | [] -> failwith "E28: no churn episodes"
      | ep :: rest ->
          List.fold_left
            (fun acc (e : Fault_metrics.episode_report) ->
              if Array.length e.Fault_metrics.decay <> Array.length acc then
                failwith "E28: episode decay grids differ";
              Array.mapi
                (fun i (a, s) ->
                  (a, Float.max s (snd e.Fault_metrics.decay.(i))))
                acc)
            ep.Fault_metrics.decay rest
    in
    (checked, decay)
  in
  let at_age decay age =
    Array.fold_left
      (fun acc (a, s) ->
        match acc with
        | Some _ when fst (Option.get acc) >= age -> acc
        | _ when a >= age -> Some (a, s)
        | _ -> acc)
      None decay
  in
  let results =
    List.map
      (fun algo -> (algo, run_one algo))
      [ Algorithm.Dynamic_gradient_sync; Algorithm.Gradient_sync ]
  in
  let rows =
    List.map
      (fun (algo, ((checked : Check_run.checked), decay)) ->
        let skew0 = if Array.length decay = 0 then nan else snd decay.(0) in
        let skew_stab =
          match at_age decay stabilization with
          | Some (_, s) -> s
          | None -> nan
        in
        [
          Algorithm.kind_name algo;
          fmt skew0;
          fmt skew_stab;
          fmt settled;
          fmt allow0;
          (match checked.Check_run.violation with
          | None -> "conforms"
          | Some v -> "VIOLATES " ^ Monitor.kind_name v.Monitor.kind);
        ])
      results
  in
  print_table ~name:"e28_dynamic_networks"
    ~title:
      (Printf.sprintf
         "line:%d, sections at drift 1+rho / 1+rho/2 / 1 (rho %g), section \
          boundaries re-form at t=%g, stabilization %g"
         n spec28.Spec.rho form stabilization)
    ~columns:
      [
        Table.column ~align:Table.Left "algorithm";
        Table.column "skew at formation";
        Table.column "skew at +stab";
        Table.column "settled bound";
        Table.column "fresh allowance";
        Table.column ~align:Table.Left "edge-age verdict";
      ]
    ~rows;
  (* The three claims, hard-asserted. *)
  (match results with
  | [ (_, (dyn, decay)); (_, (grad, _)) ] ->
      (match dyn.Check_run.violation with
      | Some v ->
          Printf.eprintf "E28: dynamic-gradient violated its monitor: %s\n"
            (Monitor.violation_to_string v);
          exit 1
      | None -> ());
      (match grad.Check_run.violation with
      | Some { Monitor.kind = Monitor.Edge_age; _ } -> ()
      | Some v ->
          Printf.eprintf
            "E28: static gradient violated %s, expected the edge-age bound\n"
            (Monitor.kind_name v.Monitor.kind);
          exit 1
      | None ->
          Printf.eprintf
            "E28: static gradient conformed; expected an edge-age violation\n";
          exit 1);
      let late_bad =
        Array.exists
          (fun (a, s) -> a >= stabilization && s > settled)
          decay
      in
      if late_bad then begin
        Printf.eprintf
          "E28: fresh-edge skew still above the static bound after the \
           stabilization time\n";
        exit 1
      end;
      if Array.length decay = 0 || snd decay.(0) <= spec28.Spec.kappa then begin
        Printf.eprintf
          "E28: formation skew too small to demonstrate decay (%.3f)\n"
          (if Array.length decay = 0 then nan else snd decay.(0));
        exit 1
      end
  | _ -> assert false)

let experiments =
  [
    ("e1", e1); ("e2", e2); ("e3", e3); ("e4", e4);
    ("e5", e5); ("e6", e6); ("e7", e7); ("e9", e9);
    ("e10", e10); ("e11", e11); ("e12", e12); ("e13", e13);
    ("e14", e14); ("e15", e15); ("e16", e16); ("e17", e17);
    ("e18", e18); ("e19", e19); ("e20", e20); ("e21", e21); ("e22", e22);
    ("e23", e23); ("e24", e24); ("e25", e25); ("e26", e26); ("e27", e27);
    ("e28", e28);
    ("e8", e8);
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec strip_opts acc = function
    | "--csv" :: dir :: rest ->
        csv_dir := Some dir;
        strip_opts acc rest
    | ("-jobs" | "--jobs") :: n :: rest ->
        (match int_of_string_opt n with
        | Some j when j >= 1 -> jobs := j
        | Some _ | None ->
            Printf.eprintf "-jobs expects a positive integer, got %S\n" n;
            exit 2);
        strip_opts acc rest
    | x :: rest -> strip_opts (x :: acc) rest
    | [] -> List.rev acc
  in
  let names = strip_opts [] args in
  let requested = if names = [] then List.map fst experiments else names in
  Printf.printf
    "Gradient Clock Synchronization (Fan & Lynch, PODC 2004) — experiments\n";
  Printf.printf "spec: u = %g, rho = %g, mu = %g, kappa = %.3f\n" u
    spec.Spec.rho spec.Spec.mu spec.Spec.kappa;
  List.iter
    (fun name ->
      match List.assoc_opt name experiments with
      | Some f -> f ()
      | None ->
          Printf.eprintf "unknown experiment %S (known: %s)\n" name
            (String.concat ", " (List.map fst experiments));
          exit 2)
    requested
