(* gcs-cli: run gradient clock synchronization simulations from the shell.

   Subcommands:
     run      - one simulation, printed summary (optionally the gradient profile)
     compare  - all algorithms side by side on one topology
     attack   - the lower-bound adversaries (fan-lynch | linear | ring-bias)
     bounds   - print the analytic bounds for a given instance
     faults   - one simulation under a fault plan, with recovery metrics
     sweep    - batched campaign over seeds x topologies x algorithms,
                sharded across domains, emitted as one CSV; --store makes
                it resumable and incremental via the experiment store
     store    - inspect/maintain the experiment store and diff a sweep
                CSV against a stored baseline (regression gate)
     trace    - export the structured event log (JSONL/CSV) and skew
                series of one or more runs; byte-identical across --jobs
     report   - summary table, skew sparklines, fault episodes, and
                profiler totals for a batch of runs
     live     - run the algorithm as real UDP processes (one per node) on
                loopback/LAN, record the execution, and report it through
                the same pipeline as simulations
     check    - conformance harness: monitored runs, shrinking, .repro
                replay, and the conformance battery; also re-checks
                recorded live runs offline
     explore  - exhaustive small-scope model checking: enumerate every
                execution of a tiny instance, prove monitors or emit a
                shrunk .repro counterexample *)

open Cmdliner
module Graph = Gcs_graph.Graph
module Topology = Gcs_graph.Topology
module Shortest_path = Gcs_graph.Shortest_path
module Drift = Gcs_clock.Drift
module Lc = Gcs_clock.Logical_clock
module Spec = Gcs_core.Spec
module Algorithm = Gcs_core.Algorithm
module Runner = Gcs_core.Runner
module Metrics = Gcs_core.Metrics
module Bounds = Gcs_core.Bounds
module Fan_lynch = Gcs_adversary.Fan_lynch
module Linear = Gcs_adversary.Linear
module Bias = Gcs_adversary.Bias
module Table = Gcs_util.Table
module Prng = Gcs_util.Prng
module Scheduler = Gcs_util.Scheduler
module Engine = Gcs_sim.Engine
module Fault_plan = Gcs_sim.Fault_plan
module Churn_plan = Gcs_sim.Churn_plan
module Fault_metrics = Gcs_core.Fault_metrics
module Capture = Gcs_obs.Capture
module Event_log = Gcs_obs.Event_log
module Series = Gcs_obs.Series
module Profiler = Gcs_obs.Profiler
module Report = Gcs_core.Report
module Parallel_run = Gcs_core.Parallel_run
module Live_run = Gcs_net.Live_run

let or_die = function
  | Ok v -> v
  | Error msg ->
      prerr_endline ("error: " ^ msg);
      exit 2

(* Library constructors reject out-of-range values with [Invalid_argument];
   on the command line those are user errors. *)
let or_die_invalid f = try f () with Invalid_argument msg -> or_die (Error msg)

(* Shared argument converters *)

(* A topology spec parses to a result that the command checks when it
   runs, so an invalid one ("ring:1") exits 2 with one [error:] line like
   every other invalid value, instead of as a command-line syntax error. *)
let topology_conv =
  let parse s = Ok (Topology.spec_of_string s) in
  let print ppf = function
    | Ok t -> Format.pp_print_string ppf (Topology.spec_name t)
    | Error msg -> Format.pp_print_string ppf msg
  in
  Arg.conv (parse, print)

let algo_conv =
  let parse s = Algorithm.kind_of_string s |> Result.map_error (fun e -> `Msg e) in
  let print ppf k = Format.pp_print_string ppf (Algorithm.kind_name k) in
  Arg.conv (parse, print)

let drift_conv =
  let parse s = Drift.pattern_of_string s |> Result.map_error (fun e -> `Msg e) in
  let print ppf _ = Format.pp_print_string ppf "<drift>" in
  Arg.conv (parse, print)

let fault_plan_conv =
  let parse s = Fault_plan.of_string s |> Result.map_error (fun e -> `Msg e) in
  let print ppf p = Format.pp_print_string ppf (Fault_plan.to_string p) in
  Arg.conv (parse, print)

let churn_conv =
  let parse s = Churn_plan.of_string s |> Result.map_error (fun e -> `Msg e) in
  let print ppf p = Format.pp_print_string ppf (Churn_plan.to_string p) in
  Arg.conv (parse, print)

let churn_arg =
  let doc =
    "Topology churn plan: ';'-separated processes edge-up@T:EDGES, \
     edge-down@T:EDGES, flap@T1..T2:up=U:down=D[:EDGES], grow@T1..T2:EDGES, \
     shrink@T1..T2:EDGES, with EDGES = all, edges=U-V,... or cut=V,.... \
     Compiled seed-deterministically into partition/heal events and \
     composed with any fault plan; a plan that keeps every edge up is \
     bit-identical to no plan at all."
  in
  Arg.(
    value & opt (some churn_conv) None & info [ "churn" ] ~docv:"PLAN" ~doc)

let scheduler_conv =
  let parse s = Scheduler.kind_of_string s |> Result.map_error (fun e -> `Msg e) in
  let print ppf k = Format.pp_print_string ppf (Scheduler.kind_name k) in
  Arg.conv (parse, print)

(* Shared options *)

let topology_arg =
  let doc =
    "Topology: line:N, ring:N, grid:RxC, torus:RxC, complete:N, star:N, \
     btree:DEPTH, hypercube:DIM, gnp:N:P, geometric:N:R."
  in
  Term.(
    const or_die
    $ Arg.(
        value
        & opt topology_conv (Ok (Topology.Ring 16))
        & info [ "t"; "topology" ] ~docv:"TOPOLOGY" ~doc))

let algo_arg =
  let doc =
    "Algorithm: gradient, dynamic-gradient (fresh edges tighten gradually \
     under churn), ft-gradient-F (fault-containing, F Byzantine neighbors \
     tolerated), tree, max, free-run."
  in
  Arg.(
    value
    & opt algo_conv Algorithm.Gradient_sync
    & info [ "a"; "algorithm" ] ~docv:"ALGO" ~doc)

let drift_arg =
  let doc =
    "Per-node drift pattern: perfect, fast, slow, mid, random, \
     walk:STEP:SIGMA, square:PERIOD, sin:PERIOD."
  in
  Arg.(
    value
    & opt drift_conv Drift.Random_constant
    & info [ "drift" ] ~docv:"PATTERN" ~doc)

let horizon_arg =
  Arg.(
    value & opt float 400.
    & info [ "horizon" ] ~docv:"TIME" ~doc:"Simulated real-time length.")

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Run seed.")

let rho_arg =
  Arg.(
    value & opt float 0.01
    & info [ "rho" ] ~docv:"RHO" ~doc:"Hardware drift bound (rates in [1, 1+rho]).")

let mu_arg =
  Arg.(
    value & opt float 0.1
    & info [ "mu" ] ~docv:"MU" ~doc:"Gradient-algorithm speedup parameter.")

let d_min_arg =
  Arg.(value & opt float 0.5 & info [ "d-min" ] ~docv:"D" ~doc:"Minimum hop delay.")

let d_max_arg =
  Arg.(value & opt float 1.5 & info [ "d-max" ] ~docv:"D" ~doc:"Maximum hop delay.")

let period_arg =
  Arg.(
    value & opt float 1.
    & info [ "period" ] ~docv:"P" ~doc:"Beacon/probe period (hardware time).")

let kappa_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "kappa" ] ~docv:"K" ~doc:"Skew quantum (default derived from the spec).")

let profile_flag =
  Arg.(
    value & flag
    & info [ "profile" ] ~doc:"Also print the empirical gradient profile f(k).")

let loss_arg =
  Arg.(
    value & opt float 0.
    & info [ "loss" ] ~docv:"P" ~doc:"I.i.d. message-loss probability in [0, 1].")

let stabilize_flag =
  Arg.(
    value & flag
    & info [ "stabilize" ]
        ~doc:"Wrap the algorithm with the self-stabilization monitor.")

let fault_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "fault" ] ~docv:"X"
        ~doc:"Corrupt node 0's initial clock by X (transient-fault injection).")

let check_flag =
  Arg.(
    value & flag
    & info [ "check" ]
        ~doc:"Validate the run against the model's output requirements.")

let trials_arg =
  Arg.(
    value & opt int 1
    & info [ "trials" ] ~docv:"N"
        ~doc:"Replicate over N seeds and report mean ± 95% CI.")

let scheduler_arg =
  Arg.(
    value
    & opt scheduler_conv Scheduler.Binary_heap
    & info [ "scheduler" ] ~docv:"KIND"
        ~doc:
          "Event-queue implementation: heap or calendar. A pure execution \
           strategy — results are byte-identical for every kind.")

let regions_arg =
  Arg.(
    value & opt int 1
    & info [ "regions" ] ~docv:"N"
        ~doc:
          "Run the engine region-parallel on N domains (1 = serial). Also a \
           pure execution strategy: results are byte-identical for every N, \
           and configurations the parallel engine cannot reproduce \
           bit-for-bit silently fall back to serial.")

let spec_term =
  let make rho mu d_min d_max period kappa =
    try Ok (Spec.make ~rho ~mu ~d_min ~d_max ~beacon_period:period ?kappa ())
    with Invalid_argument msg -> Error msg
  in
  Term.(
    const make $ rho_arg $ mu_arg $ d_min_arg $ d_max_arg $ period_arg
    $ kappa_arg)

let build_graph spec_t seed =
  Topology.build spec_t ~rng:(Prng.create ~seed:(seed lxor 0x5eed))

(* Expand a churn plan against one run's graph/seed/horizon and fold it
   into the run's fault plan. *)
let apply_churn ?churn ~graph ~seed ~horizon fault_plan =
  match churn with
  | None -> fault_plan
  | Some c -> (
      let compiled =
        or_die_invalid (fun () -> Churn_plan.compile c ~graph ~seed ~horizon)
      in
      match (fault_plan, compiled) with
      | p, None | None, p -> p
      | Some a, Some b -> Some (Fault_plan.compose a b))

let print_summary ~graph ~spec (r : Runner.result) =
  let d = Shortest_path.diameter graph in
  let s = r.Runner.summary in
  Printf.printf "nodes %d, edges %d, diameter %d, u = %g, kappa = %.4f\n"
    (Graph.n graph) (Graph.m graph) d (Spec.uncertainty spec) spec.Spec.kappa;
  Printf.printf "max local skew    : %.4f\n" s.Metrics.max_local;
  Printf.printf "mean local skew   : %.4f\n" s.Metrics.mean_local;
  Printf.printf "p99 local skew    : %.4f\n" s.Metrics.p99_local;
  Printf.printf "max global skew   : %.4f\n" s.Metrics.max_global;
  Printf.printf "final local skew  : %.4f\n" s.Metrics.final_local;
  Printf.printf "final global skew : %.4f\n" s.Metrics.final_global;
  Printf.printf "messages / events : %d / %d\n" r.Runner.messages r.Runner.events;
  if r.Runner.jumps.Lc.count > 0 then
    Printf.printf
      "clock jumps       : %d (max %.4f) — violates the bounded-rate model\n"
      r.Runner.jumps.Lc.count r.Runner.jumps.Lc.max_magnitude;
  Printf.printf "gradient envelope : %.4f (analytic local bound)\n"
    (Bounds.gradient_local_upper spec ~diameter:d)

let run_cmd =
  let action spec_result topo algo drift horizon seed profile loss stabilize
      fault check scheduler regions churn =
    let spec = or_die spec_result in
    let graph = build_graph topo seed in
    let fault_plan = apply_churn ?churn ~graph ~seed ~horizon None in
    let loss_law =
      if loss <= 0. then Runner.No_loss else Runner.Uniform_loss loss
    in
    let override, stats =
      if stabilize then begin
        let wrapped, stats =
          Gcs_core.Stabilize.wrap ~inner:(Gcs_core.Registry.get algo) ()
        in
        (Some wrapped, Some stats)
      end
      else (None, None)
    in
    let initial_value_of_node v =
      match fault with Some x when v = 0 -> x | Some _ | None -> 0.
    in
    let cfg =
      or_die_invalid (fun () ->
          Runner.config ~spec ~algo ~drift_of_node:(fun _ -> drift) ~horizon
            ~seed ~loss:loss_law ?override ?fault_plan ~initial_value_of_node
            ~scheduler ~regions graph)
    in
    let r = Runner.run cfg in
    Printf.printf "algorithm: %s%s on %s\n" (Algorithm.kind_name algo)
      (if stabilize then " (stabilized)" else "")
      (Topology.spec_name topo);
    (match churn with
    | Some c -> Printf.printf "churn: %s\n" (Churn_plan.to_string c)
    | None -> ());
    print_summary ~graph ~spec r;
    if r.Runner.dropped > 0 then
      Printf.printf "messages dropped  : %d\n" r.Runner.dropped;
    (match stats with
    | Some st ->
        Printf.printf "monitor           : %d rounds, %d resets, last estimate %.4f\n"
          st.Gcs_core.Stabilize.rounds_completed st.Gcs_core.Stabilize.resets
          st.Gcs_core.Stabilize.last_estimate
    | None -> ());
    if check then begin
      match Gcs_core.Invariant.check_result r ~algo with
      | [] -> Printf.printf "model check       : OK (no violations)\n"
      | violations ->
          Printf.printf "model check       : %d violation(s)\n"
            (List.length violations);
          List.iteri
            (fun i v ->
              if i < 5 then
                Printf.printf "  %s\n" (Gcs_core.Invariant.to_string v))
            violations;
          exit 1
    end;
    if profile then begin
      let p =
        Metrics.max_gradient_profile graph r.Runner.samples
          ~after:cfg.Runner.warmup
      in
      Table.print ~title:"Gradient profile f(k)"
        ~columns:[ Table.column ~align:Table.Left "k"; Table.column "max skew" ]
        ~rows:
          (Array.to_list
             (Array.mapi
                (fun i x -> [ string_of_int (i + 1); Table.fmt_float ~digits:4 x ])
                p))
    end
  in
  let term =
    Term.(
      const action $ spec_term $ topology_arg $ algo_arg $ drift_arg
      $ horizon_arg $ seed_arg $ profile_flag $ loss_arg $ stabilize_flag
      $ fault_arg $ check_flag $ scheduler_arg $ regions_arg $ churn_arg)
  in
  Cmd.v (Cmd.info "run" ~doc:"Run one synchronization simulation.") term

let compare_cmd =
  let action spec_result topo drift horizon seed trials =
    let spec = or_die spec_result in
    let graph = build_graph topo seed in
    let seeds =
      if trials <= 1 then [ seed ]
      else List.init trials (fun i -> seed + (7919 * i))
    in
    let rows =
      List.map
        (fun algo ->
          let run_one seed =
            Runner.run
              (or_die_invalid (fun () ->
                   Runner.config ~spec ~algo ~drift_of_node:(fun _ -> drift)
                     ~horizon ~seed graph))
          in
          let summarize f =
            Gcs_core.Replicate.measure ~seeds (fun seed ->
                f (run_one seed))
          in
          let local =
            summarize (fun r -> r.Runner.summary.Metrics.max_local)
          in
          let global =
            summarize (fun r -> r.Runner.summary.Metrics.max_global)
          in
          let one = run_one seed in
          let cell s =
            if trials <= 1 then
              Table.fmt_float ~digits:4 s.Gcs_core.Replicate.mean
            else Gcs_core.Replicate.to_string ~digits:4 s
          in
          [
            Algorithm.kind_name algo;
            cell local;
            cell global;
            string_of_int one.Runner.jumps.Lc.count;
            string_of_int one.Runner.messages;
          ])
        Algorithm.all_kinds
    in
    Table.print
      ~title:(Printf.sprintf "Algorithms on %s" (Topology.spec_name topo))
      ~columns:
        [
          Table.column ~align:Table.Left "algorithm";
          Table.column "max local";
          Table.column "max global";
          Table.column "jumps";
          Table.column "messages";
        ]
      ~rows
  in
  let term =
    Term.(
      const action $ spec_term $ topology_arg $ drift_arg $ horizon_arg
      $ seed_arg $ trials_arg)
  in
  Cmd.v (Cmd.info "compare" ~doc:"Compare all algorithms on one topology.") term

let attack_cmd =
  let kind_conv =
    Arg.enum
      [
        ("fan-lynch", `Fan_lynch);
        ("linear", `Linear);
        ("ring-bias", `Bias);
        ("byz-search", `Byz_search);
      ]
  in
  let kind_arg =
    Arg.(
      value
      & opt kind_conv `Fan_lynch
      & info [ "kind" ] ~docv:"KIND"
          ~doc:
            "Adversary: fan-lynch, linear, ring-bias, byz-search \
             (co-optimize a Byzantine lying strategy with the delay/rate \
             schedule). Link churn is a fault plan: see faults --churn.")
  in
  let n_arg =
    Arg.(value & opt int 33 & info [ "n" ] ~docv:"N" ~doc:"Number of nodes.")
  in
  let liars_arg =
    Arg.(
      value & opt int 1
      & info [ "liars" ] ~docv:"F"
          ~doc:"Byzantine node budget for byz-search.")
  in
  let segments_arg =
    Arg.(
      value & opt int 4
      & info [ "segments" ] ~docv:"N"
          ~doc:"Move segments for byz-search's beam stage.")
  in
  let beam_arg =
    Arg.(
      value & opt int 4
      & info [ "beam" ] ~docv:"W" ~doc:"Beam width for byz-search.")
  in
  let action spec_result algo kind n seed liars segments beam =
    let spec = or_die spec_result in
    match kind with
    | `Fan_lynch ->
        let cfg = Fan_lynch.default_config ~spec ~algo ~seed ~n () in
        let r = Fan_lynch.attack cfg in
        Printf.printf "fan-lynch attack on line:%d against %s\n" n
          (Algorithm.kind_name algo);
        Printf.printf "phases        : %d (horizon %.1f)\n" r.Fan_lynch.phases
          r.Fan_lynch.horizon;
        Printf.printf "forced local  : %.4f\n" r.Fan_lynch.forced_local;
        Printf.printf "forced global : %.4f\n" r.Fan_lynch.forced_global;
        Printf.printf "theorem line  : %.4f (c u logD / loglogD)\n"
          r.Fan_lynch.lower_bound
    | `Linear ->
        let r = Linear.attack ~spec ~algo ~seed ~n () in
        Printf.printf "linear attack on line:%d against %s\n" n
          (Algorithm.kind_name algo);
        Printf.printf "forced global : %.4f\n" r.Linear.forced_global;
        Printf.printf "forced local  : %.4f\n" r.Linear.forced_local;
        Printf.printf "bound u*D/4   : %.4f\n" r.Linear.lower_bound
    | `Bias ->
        let r = Bias.attack_ring ~spec ~algo ~seed ~n () in
        Printf.printf "ring-bias attack on ring:%d against %s\n" n
          (Algorithm.kind_name algo);
        Printf.printf "forced local  : %.4f\n" r.Bias.forced_local;
        Printf.printf "forced global : %.4f\n" r.Bias.forced_global
    | `Byz_search ->
        let module Search = Gcs_adversary.Search in
        let cfg = Search.default_config ~spec ~algo ~segments ~beam ~seed ~n () in
        let r = or_die_invalid (fun () -> Search.byz_search ~f:liars cfg) in
        Printf.printf "byzantine co-search on line:%d against %s (%d liar%s)\n"
          n (Algorithm.kind_name algo) liars (if liars = 1 then "" else "s");
        Printf.printf "byz plan             : %s\n"
          (Fault_plan.to_string r.Search.byz_plan);
        Printf.printf "moves                : %s\n"
          (Gcs_check.Repro.moves_to_string r.Search.byz_moves);
        Printf.printf "forced correct local : %.4f\n"
          r.Search.forced_correct_local;
        Printf.printf "evaluations          : %d\n" r.Search.byz_evaluations
  in
  let term =
    Term.(
      const action $ spec_term $ algo_arg $ kind_arg $ n_arg $ seed_arg
      $ liars_arg $ segments_arg $ beam_arg)
  in
  Cmd.v (Cmd.info "attack" ~doc:"Run a lower-bound adversary.") term

let bounds_cmd =
  let d_arg =
    Arg.(value & opt int 32 & info [ "diameter" ] ~docv:"D" ~doc:"Network diameter.")
  in
  let action spec_result d =
    let spec = or_die spec_result in
    let u = Spec.uncertainty spec in
    Printf.printf "instance: u = %g, rho = %g, mu = %g, kappa = %.4f, D = %d\n"
      u spec.Spec.rho spec.Spec.mu spec.Spec.kappa d;
    Printf.printf "fan-lynch lower bound   : %.4f\n"
      (Bounds.fan_lynch_lower ~u ~diameter:d);
    Printf.printf "gradient local envelope : %.4f\n"
      (Bounds.gradient_local_upper spec ~diameter:d);
    Printf.printf "gradient global envelope: %.4f\n"
      (Bounds.gradient_global_upper spec ~diameter:d);
    Printf.printf "max-sync global envelope: %.4f\n"
      (Bounds.max_sync_global_upper spec ~diameter:d);
    Printf.printf "sigma (log base)        : %.2f\n" (Spec.sigma spec)
  in
  let term = Term.(const action $ spec_term $ d_arg) in
  Cmd.v (Cmd.info "bounds" ~doc:"Print analytic bounds for an instance.") term

let external_cmd =
  let anchors_conv =
    Arg.enum [ ("none", `None); ("one", `One); ("sparse", `Sparse); ("all", `All) ]
  in
  let anchors_arg =
    Arg.(
      value
      & opt anchors_conv `One
      & info [ "anchors" ] ~docv:"WHO"
          ~doc:"Which nodes hold a reference: none, one, sparse (every 8th), all.")
  in
  let bias_arg =
    Arg.(
      value & opt float 0.1
      & info [ "ref-bias" ] ~docv:"B" ~doc:"Constant reference error.")
  in
  let wander_arg =
    Arg.(
      value & opt float 0.2
      & info [ "ref-wander" ] ~docv:"W" ~doc:"Reference error wander amplitude.")
  in
  let action spec_result topo horizon seed anchors bias wander =
    let spec = or_die spec_result in
    let graph = build_graph topo seed in
    let reference =
      Gcs_core.External_sync.noisy_reference ~bias ~wander
        ~period:(horizon /. 10.) ~phase:0.7
    in
    let anchor_fn =
      match anchors with
      | `None -> fun _ -> None
      | `One -> fun v -> if v = 0 then Some reference else None
      | `Sparse -> fun v -> if v mod 8 = 0 then Some reference else None
      | `All -> fun _ -> Some reference
    in
    let algo = Gcs_core.External_sync.algorithm ~anchors:anchor_fn in
    let cfg =
      or_die_invalid (fun () ->
          Runner.config ~spec ~algo:Algorithm.Gradient_sync ~override:algo
            ~horizon ~seed graph)
    in
    let r = Runner.run cfg in
    let rt =
      Array.fold_left
        (fun acc (s : Metrics.sample) ->
          if s.Metrics.time >= horizon /. 2. then
            Float.max acc
              (Metrics.real_time_skew ~time:s.Metrics.time s.Metrics.values)
          else acc)
        0. r.Runner.samples
    in
    Printf.printf "external synchronization on %s\n" (Topology.spec_name topo);
    Printf.printf "real-time skew (post-convergence) : %.4f\n" rt;
    Printf.printf "max local skew                    : %.4f\n"
      r.Runner.summary.Metrics.max_local;
    Printf.printf "max global skew                   : %.4f\n"
      r.Runner.summary.Metrics.max_global
  in
  let term =
    Term.(
      const action $ spec_term $ topology_arg $ horizon_arg $ seed_arg
      $ anchors_arg $ bias_arg $ wander_arg)
  in
  Cmd.v
    (Cmd.info "external" ~doc:"Run external synchronization against a reference.")
    term

let faults_cmd =
  let plan_arg =
    let doc =
      "Fault plan, e.g. 'partition@100:cut=0;heal@200:cut=0' or \
       'crash@100:node=3;recover@160:node=3:wipe'. Events are \
       ';'-separated: partition@T:EDGES, heal@T:EDGES, crash@T:node=V, \
       recover@T:node=V[:wipe], dup@T1..T2:p=P[:EDGES], \
       reorder@T1..T2:p=P:extra=X[:EDGES], corrupt@T1..T2:p=P:mag=M[:EDGES], \
       jump@T:node=V:delta=X, rate@T:node=V:rate=R, \
       byz@T1..T2:node=V:STRAT where STRAT is off=X (constant lie), rate=R \
       (drifting lie), mag=M (fresh random lie per message) or equiv=M \
       (equivocation); EDGES is all, edges=U-V,... or cut=V,... (default: \
       isolate node 0 for the middle quarter of the horizon)."
    in
    Arg.(
      value
      & opt (some fault_plan_conv) None
      & info [ "plan" ] ~docv:"PLAN" ~doc)
  in
  let action spec_result topo algo drift horizon seed plan churn =
    let spec = or_die spec_result in
    let graph = build_graph topo seed in
    let plan =
      match (plan, churn) with
      | Some p, _ -> Some p
      | None, Some _ -> None (* churn alone is the plan *)
      | None, None ->
          (* Standard smoke battery: cut node 0 off for the middle quarter. *)
          Some
            (Fault_plan.of_events
               [
                 Fault_plan.Link_partition
                   { at = 0.375 *. horizon; edges = Fault_plan.Cut [ 0 ] };
                 Fault_plan.Link_heal
                   { at = 0.625 *. horizon; edges = Fault_plan.Cut [ 0 ] };
               ])
    in
    let plan =
      match apply_churn ?churn ~graph ~seed ~horizon plan with
      | Some p -> p
      | None -> or_die (Error "churn plan is inert and no fault plan given")
    in
    (match Fault_plan.validate plan graph with
    | Ok () -> ()
    | Error msg -> or_die (Error ("fault plan: " ^ msg)));
    let cfg =
      or_die_invalid (fun () ->
          Runner.config ~spec ~algo ~drift_of_node:(fun _ -> drift) ~horizon
            ~seed ~fault_plan:plan graph)
    in
    let r = Runner.run cfg in
    Printf.printf "algorithm: %s on %s\n" (Algorithm.kind_name algo)
      (Topology.spec_name topo);
    (match churn with
    | Some c -> Printf.printf "churn: %s\n" (Churn_plan.to_string c)
    | None -> ());
    Printf.printf "fault plan: %s\n" (Fault_plan.to_string plan);
    print_summary ~graph ~spec r;
    if r.Runner.dropped > 0 then
      Printf.printf "messages dropped  : %d (loss law)\n" r.Runner.dropped;
    let report =
      match r.Runner.fault_report with
      | Some rep -> rep
      | None -> or_die (Error "internal: faulted run produced no report")
    in
    Printf.printf "fault drops       : %d" report.Fault_metrics.dropped_faults;
    if report.Fault_metrics.duplicated > 0 then
      Printf.printf ", duplicated %d" report.Fault_metrics.duplicated;
    if report.Fault_metrics.corrupted > 0 then
      Printf.printf ", corrupted %d" report.Fault_metrics.corrupted;
    if report.Fault_metrics.lied > 0 then
      Printf.printf ", lied %d" report.Fault_metrics.lied;
    print_newline ();
    (match report.Fault_metrics.correct with
    | None -> ()
    | Some c ->
        let byz = Fault_plan.byzantine_nodes plan in
        Printf.printf "byzantine nodes   : %s\n"
          (String.concat "," (List.map string_of_int byz));
        Printf.printf
          "correct-node skew : max local %.4f, max global %.4f (liars \
           excluded)\n"
          c.Metrics.max_local c.Metrics.max_global);
    Printf.printf "fault episodes    :\n";
    List.iter
      (fun e ->
        Printf.printf "  %s\n" (Fault_metrics.episode_to_string e);
        (* Post-heal decay curve, subsampled: the dynamic-network skew
           decay on a (re)formed edge as a function of its age. *)
        let d = e.Fault_metrics.decay in
        let n = Array.length d in
        if n > 1 then begin
          let picks = min 8 n in
          let pts =
            List.init picks (fun i ->
                let age, skew = d.(i * (n - 1) / (picks - 1)) in
                Printf.sprintf "t+%g %.3f" age skew)
          in
          Printf.printf "    decay: %s\n" (String.concat "  " pts)
        end)
      report.Fault_metrics.episodes;
    Printf.printf "worst transient   : %.4f\n"
      (Fault_metrics.worst_transient report);
    (match Fault_metrics.max_time_to_resync report with
    | Some t ->
        Printf.printf "time to resync    : %.4f\n" t;
        Printf.printf "finite time-to-resync : yes\n"
    | None ->
        Printf.printf "time to resync    : never\n";
        Printf.printf "finite time-to-resync : no\n";
        exit 1)
  in
  let term =
    Term.(
      const action $ spec_term $ topology_arg $ algo_arg $ drift_arg
      $ horizon_arg $ seed_arg $ plan_arg $ churn_arg)
  in
  Cmd.v
    (Cmd.info "faults"
       ~doc:
         "Run one simulation under a fault plan and report per-episode \
          recovery metrics (worst transient skew, time-to-resync). Exits \
          non-zero if any healed fault never resynchronized.")
    term

let sweep_cmd =
  let topologies_arg =
    let doc =
      "Comma-separated topology specs forming one sweep axis, e.g. \
       ring:8,ring:16,ring:32 or line:16,grid:4x8."
    in
    Term.(
      const (List.map or_die)
      $ Arg.(
          value
          & opt (list topology_conv) [ Ok (Topology.Ring 16) ]
          & info [ "topologies" ] ~docv:"TOPO,..." ~doc))
  in
  let algos_arg =
    let doc = "Comma-separated algorithms (default: all registered)." in
    Arg.(
      value
      & opt (list algo_conv) Algorithm.all_kinds
      & info [ "algos" ] ~docv:"ALGO,..." ~doc)
  in
  let seeds_arg =
    Arg.(
      value & opt int 8
      & info [ "seeds" ] ~docv:"N" ~doc:"Replicates per (topology, algorithm) cell.")
  in
  let seed_base_arg =
    Arg.(
      value & opt int 1000
      & info [ "seed-base" ] ~docv:"BASE"
          ~doc:"First seed of the replicate batch (Replicate.seeds).")
  in
  let jobs_arg =
    Arg.(
      value & opt int 1
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Shard the batch across N domains. Output is byte-identical for \
             every N; 0 means one domain per core.")
  in
  let out_arg =
    Arg.(
      value
      & opt string "-"
      & info [ "o"; "out" ] ~docv:"FILE" ~doc:"CSV destination (- for stdout).")
  in
  let sweep_plan_arg =
    Arg.(
      value
      & opt (some fault_plan_conv) None
      & info [ "fault-plan" ] ~docv:"PLAN"
          ~doc:
            "Apply this fault plan to every cell (same spec syntax as the \
             faults subcommand); adds fault_transient and fault_resync \
             columns.")
  in
  let store_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "store" ] ~docv:"DIR"
          ~doc:
            "Consult and fill the experiment store in DIR: cells already \
             stored are served from it instead of simulating, fresh cells \
             are persisted as they complete. Makes a killed sweep resumable \
             and repeated sweeps incremental; output stays byte-identical \
             to a storeless run.")
  in
  let action spec_result topologies algos seeds seed_base jobs out horizon
      loss fault_plan store_dir =
    let spec = or_die spec_result in
    let jobs = if jobs = 0 then Gcs_util.Pool.default_jobs () else jobs in
    if jobs < 0 then or_die (Error "jobs must be >= 0");
    if seeds <= 0 then or_die (Error "seeds must be > 0");
    let loss = if loss <= 0. then 0. else loss in
    let loss_law = if loss = 0. then Runner.No_loss else Runner.Uniform_loss loss in
    let seed_list = Gcs_core.Replicate.seeds ~base:seed_base seeds in
    (* The grid is laid out topology-major, then algorithm, then seed; the
       pool preserves this order, so the CSV row order — and therefore the
       whole artifact — is independent of the domain count. *)
    let cells =
      List.concat_map
        (fun topo ->
          List.concat_map
            (fun algo -> List.map (fun seed -> (topo, algo, seed)) seed_list)
            algos)
        topologies
    in
    let keyed_configs =
      Array.of_list
        (List.map
           (fun (topo, algo, seed) ->
             let graph = build_graph topo seed in
             (match fault_plan with
             | Some plan -> (
                 match Fault_plan.validate plan graph with
                 | Ok () -> ()
                 | Error msg ->
                     or_die
                       (Error
                          (Printf.sprintf "fault plan on %s: %s"
                             (Topology.spec_name topo) msg)))
             | None -> ());
             or_die_invalid (fun () ->
                 ( Some
                     (Runner.store_key ~loss ?fault_plan ~spec ~topology:topo
                        ~algo ~horizon ~seed ()),
                   Runner.config ~spec ~algo ~horizon ~loss:loss_law ~seed
                     ?fault_plan graph )))
           cells)
    in
    let store = Option.map (Gcs_store.Store.open_ ~create:true) store_dir in
    let outcomes, stats =
      Fun.protect
        ~finally:(fun () -> Option.iter Gcs_store.Store.close store)
        (fun () -> Parallel_run.run_cached ~jobs ?store keyed_configs)
    in
    let rows =
      List.mapi
        (fun i (topo, algo, seed) ->
          Report.outcome_row
            ~label:(Topology.spec_name topo)
            ~algo:(Algorithm.kind_name algo) ~seed outcomes.(i))
        cells
    in
    if store_dir <> None then
      Printf.eprintf "store: %d hits, %d misses (%d fresh dispatches)\n"
        stats.Parallel_run.hits stats.Parallel_run.misses
        stats.Parallel_run.fresh_dispatches;
    let header = Report.result_header ~faults:(fault_plan <> None) () in
    if out = "-" then print_string (Gcs_util.Csv.render ~header ~rows)
    else begin
      Gcs_util.Csv.write ~path:out ~header ~rows;
      Printf.printf "wrote %d rows to %s (%d configs, %d domains)\n"
        (List.length rows) out
        (Array.length keyed_configs)
        jobs
    end
  in
  let term =
    Term.(
      const action $ spec_term $ topologies_arg $ algos_arg $ seeds_arg
      $ seed_base_arg $ jobs_arg $ out_arg $ horizon_arg $ loss_arg
      $ sweep_plan_arg $ store_arg)
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:
         "Run a seed x topology x algorithm campaign in parallel and emit one \
          CSV. Row order and contents are deterministic: --jobs changes only \
          wall-clock time.")
    term

(* Shared by trace and report: run --seeds replicate configs (seed,
   seed+7919, ...) through the parallel runner with the given capture
   request. Row/byte order is independent of --jobs. *)
let run_batch ?(scheduler = Scheduler.Binary_heap) ?(regions = 1) ?churn ~spec
    ~topo ~algo ~horizon ~seed ~seeds ~jobs ~fault_plan ~obs () =
  if seeds <= 0 then or_die (Error "seeds must be > 0");
  let jobs = if jobs = 0 then Gcs_util.Pool.default_jobs () else jobs in
  if jobs < 0 then or_die (Error "jobs must be >= 0");
  let seed_list = Gcs_core.Replicate.seeds ~base:seed seeds in
  let configs =
    Array.of_list
      (List.map
         (fun seed ->
           let graph = build_graph topo seed in
           (match fault_plan with
           | Some plan -> (
               match Fault_plan.validate plan graph with
               | Ok () -> ()
               | Error msg -> or_die (Error ("fault plan: " ^ msg)))
           | None -> ());
           List.iter
             (fun (u, v) ->
               if u < 0 || v < 0 || u >= Graph.n graph || v >= Graph.n graph
               then
                 or_die
                   (Error (Printf.sprintf "watch pair %d-%d out of range" u v)))
             obs.Capture.series_watch;
           let fault_plan = apply_churn ?churn ~graph ~seed ~horizon fault_plan in
           or_die_invalid (fun () ->
               Runner.config ~spec ~algo ~horizon ~seed ?fault_plan ~obs
                 ~scheduler ~regions graph))
         seed_list)
  in
  Parallel_run.run ~jobs configs

let seeds_repl_arg =
  Arg.(
    value & opt int 1
    & info [ "seeds" ] ~docv:"N"
        ~doc:"Replicate over N runs seeded seed, seed+7919, ....")

let jobs_repl_arg =
  Arg.(
    value & opt int 1
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Shard the runs across N domains (0 = one per core). Exports are \
           byte-identical for every N.")

let plan_repl_arg =
  Arg.(
    value
    & opt (some fault_plan_conv) None
    & info [ "fault-plan" ] ~docv:"PLAN"
        ~doc:"Apply this fault plan to every run (faults subcommand syntax).")

let series_period_arg =
  Arg.(
    value & opt float 1.
    & info [ "series-period" ] ~docv:"P" ~doc:"Time-series sampling period.")

let watch_pair_conv =
  let parse s =
    match String.split_on_char '-' s with
    | [ u; v ] -> (
        match (int_of_string_opt u, int_of_string_opt v) with
        | Some u, Some v -> Ok (u, v)
        | _ -> Error (`Msg (Printf.sprintf "bad node pair %S" s)))
    | _ -> Error (`Msg (Printf.sprintf "bad node pair %S" s))
  in
  let print ppf (u, v) = Format.fprintf ppf "%d-%d" u v in
  Arg.conv (parse, print)

let watch_arg =
  Arg.(
    value
    & opt (list watch_pair_conv) []
    & info [ "watch" ] ~docv:"U-V,..."
        ~doc:
          "Record each listed node pair's absolute skew as a dedicated \
           series column (watch0, watch1, ...) — e.g. the endpoints of a \
           churned edge, to plot its decay curve.")

let trace_cmd =
  let events_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "events" ] ~docv:"FILE"
          ~doc:"Export the event log to FILE (- for stdout).")
  in
  let format_arg =
    Arg.(
      value
      & opt (Arg.enum [ ("jsonl", Event_log.Jsonl); ("csv", Event_log.Csv) ])
          Event_log.Jsonl
      & info [ "format" ] ~docv:"FMT" ~doc:"Event export format: jsonl or csv.")
  in
  let series_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "series" ] ~docv:"FILE"
          ~doc:"Export the skew time series as CSV to FILE (- for stdout).")
  in
  let check_schema_flag =
    Arg.(
      value & flag
      & info [ "check-schema" ]
          ~doc:
            "Validate every exported JSONL line: parse it and require the \
             canonical re-encoding to reproduce the line byte for byte. \
             Exits non-zero on any violation.")
  in
  let tail_arg =
    Arg.(
      value & opt int 10
      & info [ "tail" ] ~docv:"N"
          ~doc:"Print the last N events of the first run (0 disables).")
  in
  let input_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "input" ] ~docv:"PATH"
          ~doc:
            "Read the event log from a recorded run (a directory written by \
             'gcs-cli live --record', or an events.jsonl file) instead of \
             simulating. Simulation arguments are ignored.")
  in
  (* Recorded mode: the log already exists; apply the same export /
     schema-check / tail machinery to it without running anything. *)
  let trace_input path events check_schema tail =
    let file =
      if Sys.file_exists path && Sys.is_directory path then
        Filename.concat path "events.jsonl"
      else path
    in
    if not (Sys.file_exists file) then
      or_die (Error (file ^ ": no such event log"));
    let lines =
      let ic = open_in file in
      let rec go acc =
        match input_line ic with
        | "" -> go acc
        | line -> go (line :: acc)
        | exception End_of_file ->
            close_in ic;
            List.rev acc
      in
      go []
    in
    (match events with
    | None -> ()
    | Some dest ->
        if dest = "-" then List.iter print_endline lines
        else begin
          let oc = open_out dest in
          List.iter
            (fun l ->
              output_string oc l;
              output_char oc '\n')
            lines;
          close_out oc;
          Printf.eprintf "wrote %d event lines to %s\n" (List.length lines)
            dest
        end);
    if check_schema then begin
      List.iteri
        (fun i line ->
          match Event_log.validate_line line with
          | Ok _ -> ()
          | Error msg ->
              or_die
                (Error
                   (Printf.sprintf "schema violation on line %d: %s" (i + 1)
                      msg)))
        lines;
      Printf.eprintf "schema: %d lines OK\n" (List.length lines)
    end;
    if events = None then begin
      Printf.printf "recorded log %s: %d events\n" file (List.length lines);
      if tail > 0 then begin
        let total = List.length lines in
        let last =
          if total <= tail then lines
          else List.filteri (fun i _ -> i >= total - tail) lines
        in
        Printf.printf "\nlast %d events:\n" (List.length last);
        List.iter
          (fun line ->
            match Event_log.parse_line line with
            | Ok { Event_log.entry = e; _ } ->
                print_endline
                  (Event_log.entry_to_string e.Event_log.time e.Event_log.obs)
            | Error msg -> or_die (Error msg))
          last
      end
    end
  in
  let action spec_result topo algo horizon seed seeds jobs fault_plan events
      format series series_period check_schema tail scheduler regions input
      churn watch =
    match input with
    | Some path -> trace_input path events check_schema tail
    | None ->
    let spec = or_die spec_result in
    let obs =
      {
        Capture.none with
        Capture.events = true;
        events_format = format;
        series_period = (if series = None then None else Some series_period);
        series_watch = watch;
      }
    in
    let results =
      run_batch ~scheduler ~regions ?churn ~spec ~topo ~algo ~horizon ~seed
        ~seeds ~jobs ~fault_plan ~obs ()
    in
    let logs =
      Array.map
        (fun (r : Runner.result) ->
          match r.Runner.obs.Capture.event_log with
          | Some log -> log
          | None -> or_die (Error "internal: no event log captured"))
        results
    in
    let multi = Array.length logs > 1 in
    (* Per-run logs are concatenated in input (seed) order with an explicit
       run tag, so the export bytes do not depend on --jobs. *)
    let lines =
      List.concat
        (Array.to_list
           (Array.mapi
              (fun i log ->
                let run = if multi then Some i else None in
                List.map
                  (fun e -> Event_log.encode_line ?run format e)
                  (Event_log.entries log))
              logs))
    in
    (match events with
    | None -> ()
    | Some dest ->
        let header =
          match format with
          | Event_log.Csv ->
              [ Gcs_util.Csv.render_row (Event_log.csv_header ~run:multi ()) ]
          | Event_log.Jsonl -> []
        in
        let all = header @ lines in
        if dest = "-" then List.iter print_endline all
        else begin
          let oc = open_out dest in
          List.iter
            (fun l ->
              output_string oc l;
              output_char oc '\n')
            all;
          close_out oc;
          Printf.eprintf "wrote %d event lines to %s\n" (List.length lines) dest
        end);
    if check_schema then begin
      (match format with
      | Event_log.Csv -> or_die (Error "--check-schema requires --format jsonl")
      | Event_log.Jsonl -> ());
      List.iteri
        (fun i line ->
          match Event_log.validate_line line with
          | Ok _ -> ()
          | Error msg ->
              or_die
                (Error (Printf.sprintf "schema violation on line %d: %s" (i + 1) msg)))
        lines;
      Printf.eprintf "schema: %d lines OK\n" (List.length lines)
    end;
    (match series with
    | None -> ()
    | Some dest ->
        let merged = Parallel_run.merge results in
        let widths =
          if Array.length merged.Parallel_run.series = 0 then (0, 0, 0, 0)
          else
            let _, p = merged.Parallel_run.series.(0) in
            ( Array.length p.Series.values,
              Array.length p.Series.rates,
              Array.length p.Series.profile,
              Array.length p.Series.watched )
        in
        let values, rates, hops, watched = widths in
        let header =
          "run" :: Series.csv_header ~values ~rates ~hops ~watched ()
        in
        let rows =
          Array.to_list
            (Array.map
               (fun (i, p) ->
                 Gcs_util.Csv.render_row
                   (string_of_int i :: Series.csv_row p))
               merged.Parallel_run.series)
        in
        let all = Gcs_util.Csv.render_row header :: rows in
        if dest = "-" then List.iter print_endline all
        else begin
          let oc = open_out dest in
          List.iter
            (fun l ->
              output_string oc l;
              output_char oc '\n')
            all;
          close_out oc;
          Printf.eprintf "wrote %d series rows to %s\n" (List.length rows) dest
        end);
    if events = None && series = None then begin
      Printf.printf "run: %s on %s, horizon %g, %d run(s)\n"
        (Algorithm.kind_name algo) (Topology.spec_name topo) horizon
        (Array.length results);
      (* Per-kind totals over every run's log. Fault events are node
         down/up, edge cut/heal, fault drops, duplicates, corruptions and
         lies. *)
      let totals = Array.make 6 0 in
      Array.iter
        (fun log ->
          List.iter
            (fun (e : Event_log.entry) ->
              let k =
                match e.Event_log.obs with
                | Engine.Obs_send _ -> 0
                | Engine.Obs_deliver _ -> 1
                | Engine.Obs_drop _ -> 2
                | Engine.Obs_timer _ -> 3
                | Engine.Obs_rate_change _ -> 4
                | Engine.Obs_node_down _ | Engine.Obs_node_up _
                | Engine.Obs_edge_down _ | Engine.Obs_edge_up _
                | Engine.Obs_fault_drop _ | Engine.Obs_duplicate _
                | Engine.Obs_corrupt _ | Engine.Obs_lie _ ->
                    5
              in
              totals.(k) <- totals.(k) + 1)
            (Event_log.entries log))
        logs;
      Printf.printf
        "observations: %d sends, %d delivers, %d drops, %d timers, %d rate \
         changes, %d fault events\n"
        totals.(0) totals.(1) totals.(2) totals.(3) totals.(4) totals.(5);
      Array.iteri
        (fun i (r : Runner.result) ->
          Printf.printf "run %d: final skews local %.4f, global %.4f\n" i
            r.Runner.summary.Metrics.final_local
            r.Runner.summary.Metrics.final_global)
        results;
      if tail > 0 then begin
        let entries = Event_log.entries logs.(0) in
        let total = List.length entries in
        let last =
          if total <= tail then entries
          else List.filteri (fun i _ -> i >= total - tail) entries
        in
        Printf.printf "\nlast %d events of run 0:\n" (List.length last);
        List.iter
          (fun (e : Event_log.entry) ->
            print_endline
              (Event_log.entry_to_string e.Event_log.time e.Event_log.obs))
          last
      end
    end
  in
  let term =
    Term.(
      const action $ spec_term $ topology_arg $ algo_arg $ horizon_arg
      $ seed_arg $ seeds_repl_arg $ jobs_repl_arg $ plan_repl_arg $ events_arg
      $ format_arg $ series_arg $ series_period_arg $ check_schema_flag
      $ tail_arg $ scheduler_arg $ regions_arg $ input_arg $ churn_arg
      $ watch_arg)
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run simulations and export their structured event log (JSONL or \
          CSV) and skew time series — or, with --input, apply the same \
          export and schema checks to a recorded live run. Exports are \
          deterministic: byte-identical for every --jobs value.")
    term

(* The event-volume line lives in the profiler section so a live report
   and a sim report expose comparable totals even when no profiler ran
   (live runs never have one — there is no engine to hook). *)
let print_profiler_section ?profile (results : Runner.result array) =
  let dispatches =
    Array.fold_left (fun a (r : Runner.result) -> a + r.Runner.dispatches) 0
      results
  in
  Printf.printf "\nprofiler (all runs):\n";
  Printf.printf "  dispatches           %d\n" dispatches;
  match profile with
  | None -> ()
  | Some rep -> List.iter (fun l -> Printf.printf "  %s\n" l) (Profiler.lines rep)

let report_columns =
  [
    Table.column ~align:Table.Left "run";
    Table.column "seed";
    Table.column "max local";
    Table.column "mean local";
    Table.column "max global";
    Table.column "final local";
    Table.column "final global";
    Table.column "messages";
    Table.column "events";
  ]

let report_row ~label ~seed (r : Runner.result) =
  let s = r.Runner.summary in
  [
    label;
    string_of_int seed;
    Table.fmt_float ~digits:4 s.Metrics.max_local;
    Table.fmt_float ~digits:4 s.Metrics.mean_local;
    Table.fmt_float ~digits:4 s.Metrics.max_global;
    Table.fmt_float ~digits:4 s.Metrics.final_local;
    Table.fmt_float ~digits:4 s.Metrics.final_global;
    string_of_int r.Runner.messages;
    string_of_int r.Runner.events;
  ]

let print_series_sparklines ~label (r : Runner.result) =
  match r.Runner.obs.Capture.series with
  | None -> ()
  | Some s ->
      let pts = Series.points s in
      let g = Array.map (fun p -> p.Series.global_skew) pts in
      let l = Array.map (fun p -> p.Series.local_skew) pts in
      let glo, ghi = Gcs_util.Stats.minmax g in
      let llo, lhi = Gcs_util.Stats.minmax l in
      Printf.printf "%s global %s [%.3f .. %.3f]\n" label (Report.sparkline g)
        glo ghi;
      Printf.printf "%s local  %s [%.3f .. %.3f]\n" label (Report.sparkline l)
        llo lhi

let report_recorded dir =
  let info, r = or_die (Live_run.load dir) in
  Table.print
    ~title:
      (Printf.sprintf "recorded live run: %s on %s, horizon %gs (wall)"
         (Algorithm.kind_name info.Live_run.algo)
         (Topology.spec_name info.Live_run.topology)
         info.Live_run.horizon)
    ~columns:report_columns
    ~rows:[ report_row ~label:"live" ~seed:info.Live_run.seed r ];
  print_newline ();
  print_series_sparklines ~label:"live " r;
  (match (info.Live_run.fault_plan, r.Runner.fault_report) with
  | Some plan, Some rep ->
      Printf.printf "\nfault plan: %s\n" (Fault_plan.to_string plan);
      List.iter
        (fun e -> Printf.printf "  %s\n" (Fault_metrics.episode_to_string e))
        rep.Fault_metrics.episodes
  | _ -> ());
  print_profiler_section [| r |]

let report_cmd =
  let recorded_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "recorded" ] ~docv:"DIR"
          ~doc:
            "Report a recorded live run (a directory written by 'gcs-cli \
             live --record') instead of simulating. Simulation arguments \
             are ignored.")
  in
  let action spec_result topo algo horizon seed seeds jobs fault_plan
      series_period recorded =
    match recorded with
    | Some dir -> report_recorded dir
    | None ->
    let spec = or_die spec_result in
    let obs = Capture.full ~series_period () in
    let results =
      run_batch ~spec ~topo ~algo ~horizon ~seed ~seeds ~jobs ~fault_plan ~obs
        ()
    in
    let merged = Parallel_run.merge results in
    Table.print
      ~title:
        (Printf.sprintf "%s on %s, horizon %g" (Algorithm.kind_name algo)
           (Topology.spec_name topo) horizon)
      ~columns:report_columns
      ~rows:
        (Array.to_list
           (Array.mapi
              (fun i (r : Runner.result) ->
                report_row ~label:(string_of_int i)
                  ~seed:
                    (Gcs_core.Replicate.seeds ~base:seed seeds |> fun l ->
                     List.nth l i)
                  r)
              results));
    print_newline ();
    Array.iteri
      (fun i r ->
        print_series_sparklines ~label:(Printf.sprintf "run %d" i) r)
      results;
    (match fault_plan with
    | None -> ()
    | Some plan ->
        Printf.printf "\nfault plan: %s\n" (Fault_plan.to_string plan);
        Array.iteri
          (fun i (r : Runner.result) ->
            match r.Runner.fault_report with
            | None -> ()
            | Some rep ->
                Printf.printf "run %d episodes:\n" i;
                List.iter
                  (fun e ->
                    Printf.printf "  %s\n" (Fault_metrics.episode_to_string e))
                  rep.Fault_metrics.episodes)
          results);
    print_profiler_section ?profile:merged.Parallel_run.profile results
  in
  let term =
    Term.(
      const action $ spec_term $ topology_arg $ algo_arg $ horizon_arg
      $ seed_arg $ seeds_repl_arg $ jobs_repl_arg $ plan_repl_arg
      $ series_period_arg $ recorded_arg)
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Run simulations with full capture — or load a recorded live run \
          — and print a summary table, skew sparklines, fault episodes, \
          and profiler totals.")
    term

(* gcs-cli live: the algorithm as real UDP processes. *)

let live_cmd =
  let horizon_arg =
    Arg.(
      value & opt float 6.
      & info [ "horizon" ] ~docv:"SECONDS"
          ~doc:"Wall-clock run length after the start barrier.")
  in
  let sample_period_arg =
    Arg.(
      value & opt float 0.5
      & info [ "sample-period" ] ~docv:"T"
          ~doc:"Seconds between logical-clock samples on each node.")
  in
  let base_port_arg =
    Arg.(
      value & opt int 9200
      & info [ "base-port" ] ~docv:"PORT"
          ~doc:"Node i binds UDP port PORT+i.")
  in
  let host_arg =
    Arg.(
      value & opt string "127.0.0.1"
      & info [ "host" ] ~docv:"HOST" ~doc:"Address the node sockets bind to.")
  in
  let drift_arg =
    Arg.(
      value & opt string "random"
      & info [ "drift" ] ~docv:"PATTERN"
          ~doc:
            "Simulated per-node drift pattern (same spellings as the run \
             subcommand), applied on top of the wall clock.")
  in
  let startup_arg =
    Arg.(
      value & opt float 0.5
      & info [ "startup" ] ~docv:"T"
          ~doc:"Barrier lead time for spawning the processes, in seconds.")
  in
  let plan_arg =
    Arg.(
      value
      & opt (some fault_plan_conv) None
      & info [ "plan"; "fault-plan" ] ~docv:"PLAN"
          ~doc:
            "Fault plan to inject deterministically (faults subcommand \
             syntax); times are wall seconds after the barrier.")
  in
  let record_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "record" ] ~docv:"DIR"
          ~doc:
            "Record the execution (events.jsonl, samples.csv, meta) to DIR \
             for later 'report --recorded', 'trace --input' and 'check run \
             --recorded'.")
  in
  let action spec_result topo algo horizon sample_period seed base_port host
      drift startup plan record =
    let spec = or_die spec_result in
    let cfg =
      or_die_invalid (fun () ->
          Live_run.config ~topology:topo ~algo ~spec ~drift ~horizon
            ~sample_period ~seed ~base_port ~host ?fault_plan:plan ~startup ())
    in
    let graph = Live_run.build_graph cfg in
    Printf.printf "live: %s on %s — %d UDP processes on %s:%d+, horizon %gs \
                   (wall)\n%!"
      (Algorithm.kind_name algo) (Topology.spec_name topo) (Graph.n graph)
      host base_port horizon;
    let r =
      try Live_run.run cfg
      with Failure msg | Invalid_argument msg -> or_die (Error msg)
    in
    print_summary ~graph ~spec r;
    Printf.printf "dispatches        : %d\n" r.Runner.dispatches;
    Printf.printf "dropped (wire)    : %d, dropped (faults) : %d\n"
      r.Runner.dropped r.Runner.dropped_faults;
    print_series_sparklines ~label:"live " r;
    (match r.Runner.fault_report with
    | None -> ()
    | Some rep ->
        List.iter
          (fun e -> Printf.printf "  %s\n" (Fault_metrics.episode_to_string e))
          rep.Fault_metrics.episodes);
    match record with
    | None -> ()
    | Some dir ->
        Live_run.save cfg r ~dir;
        Printf.printf "recorded to %s\n" dir
  in
  let term =
    Term.(
      const action $ spec_term $ topology_arg $ algo_arg $ horizon_arg
      $ sample_period_arg $ seed_arg $ base_port_arg $ host_arg $ drift_arg
      $ startup_arg $ plan_arg $ record_arg)
  in
  Cmd.v
    (Cmd.info "live"
       ~doc:
         "Run the algorithm as one real UDP process per node (loopback by \
          default), record the execution through the standard event-log \
          schema, and print the same summary a simulation gets.")
    term

(* gcs-cli check ... : conformance harness (online monitors, shrinking,
   repro artifacts). *)

module Monitor = Gcs_check.Monitor
module Check_run = Gcs_check.Check_run
module Check_shrink = Gcs_check.Shrink
module Repro = Gcs_check.Repro
module Ckey = Gcs_store.Key

let moves_conv =
  let parse s = Repro.moves_of_string s |> Result.map_error (fun e -> `Msg e) in
  let print ppf m = Format.pp_print_string ppf (Repro.moves_to_string m) in
  Arg.conv (parse, print)

let edge_age_conv =
  let parse s =
    match String.split_on_char ',' s |> List.map float_of_string_opt with
    | [ Some f; Some st; Some r ] -> Ok (f, st, r)
    | _ ->
        Error
          (`Msg (Printf.sprintf "expected FRESH,SETTLED,RATE floats, got %S" s))
  in
  let print ppf (f, s, r) = Format.fprintf ppf "%g,%g,%g" f s r in
  Arg.conv (parse, print)

let check_run_cmd =
  let plan_arg =
    Arg.(
      value
      & opt (some fault_plan_conv) None
      & info [ "plan"; "fault-plan" ] ~docv:"PLAN"
          ~doc:"Fault plan to run under (faults subcommand syntax).")
  in
  let edge_age_arg =
    Arg.(
      value
      & opt (some edge_age_conv) None
      & info [ "edge-age" ] ~docv:"FRESH,SETTLED,RATE"
          ~doc:
            "Override the edge-age conformance bounds: a pair formed at \
             age 0 is allowed FRESH skew, decaying at RATE per time unit \
             down to SETTLED. Default (armed automatically with --churn): \
             bounds derived from the spec, matching dynamic-gradient's own \
             allowance. Formation windows come from the compiled plan.")
  in
  let moves_arg =
    Arg.(
      value & opt moves_conv []
      & info [ "moves" ] ~docv:"MOVES"
          ~doc:
            "Adversary move sequence, two letters per move (fast side L/R/N, \
             delay bias F/B/N), ';'-separated, e.g. LF;RB;NN.")
  in
  let segment_len_arg =
    Arg.(
      value & opt float 20.
      & info [ "segment-len" ] ~docv:"T"
          ~doc:"Real-time length of each adversary move segment.")
  in
  let skew_flag =
    Arg.(
      value & flag
      & info [ "skew" ]
          ~doc:
            "Also monitor the adjacent-pair skew against the analytic \
             gradient envelope (checked after the warm-up quarter).")
  in
  let abort_flag =
    Arg.(
      value & flag
      & info [ "abort" ]
          ~doc:"Stop the run at the first violation instead of finishing.")
  in
  let shrink_flag =
    Arg.(
      value & flag
      & info [ "shrink" ]
          ~doc:
            "On violation, delta-debug the configuration down to a minimized \
             counterexample before writing the repro.")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE"
          ~doc:"Write a .repro artifact of the (minimized) violation to FILE.")
  in
  let recorded_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "recorded" ] ~docv:"DIR"
          ~doc:
            "Check a recorded live run (a directory written by 'gcs-cli \
             live --record') offline: replay its sampled trajectory \
             through the same monitor checks. Simulation arguments are \
             ignored. Exits 1 on violation, 2 on non-finite measured skew.")
  in
  (* Recorded live runs go through [Monitor.check_samples] — the identical
     per-node checks, at sample granularity, with no engine involved. *)
  let check_recorded dir skew =
    let info, r = or_die (Live_run.load dir) in
    let spec = r.Runner.spec in
    let algo = info.Live_run.algo in
    let skew_bound =
      if not skew then None
      else
        Some
          (Bounds.gradient_local_upper spec
             ~diameter:(Shortest_path.diameter r.Runner.graph))
    in
    let byzantine =
      match info.Live_run.fault_plan with
      | Some p -> Fault_plan.byzantine_nodes p
      | None -> []
    in
    let monitor =
      Check_run.default_spec ~mode:`Record ?skew_bound
        ~after:info.Live_run.warmup ~byzantine spec algo
    in
    let violation, checked =
      Monitor.check_samples monitor ~graph:r.Runner.graph
        ~samples:r.Runner.samples
    in
    Printf.printf "checked recorded %s on %s: %d sample checks\n"
      (Algorithm.kind_name algo)
      (Topology.spec_name info.Live_run.topology)
      checked;
    let s = r.Runner.summary in
    Printf.printf "measured skew: max local %.4f, max global %.4f\n"
      s.Metrics.max_local s.Metrics.max_global;
    if
      not
        (Float.is_finite s.Metrics.max_local
        && Float.is_finite s.Metrics.max_global)
    then begin
      Printf.printf "verdict: NON-FINITE SKEW\n";
      exit 2
    end;
    match violation with
    | None -> Printf.printf "verdict: CONFORMS\n"
    | Some v ->
        Printf.printf "verdict: VIOLATION\n  %s\n"
          (Monitor.violation_to_string v);
        exit 1
  in
  let action spec_result topo algo horizon seed loss plan moves segment_len
      skew abort shrink out recorded churn edge_age =
    match recorded with
    | Some dir -> check_recorded dir skew
    | None ->
    let spec = or_die spec_result in
    let loss = if loss <= 0. then 0. else loss in
    let graph = build_graph topo seed in
    let plan = apply_churn ?churn ~graph ~seed ~horizon plan in
    let key =
      Runner.store_key ~loss ?fault_plan:plan ~spec ~topology:topo ~algo
        ~horizon ~seed ()
    in
    let cfg = or_die (Runner.config_of_key key) in
    let skew_bound =
      if not skew then None
      else
        Some (Bounds.gradient_local_upper spec ~diameter:(Shortest_path.diameter graph))
    in
    (* Armed whenever the run is churned (or bounds were given explicitly):
       the conformance bound each up-pair must satisfy is parameterized by
       the edge's age, from the formation windows of the compiled plan. *)
    let edge_age_spec =
      match (edge_age, churn) with
      | None, None -> None
      | _ ->
          let diameter = Shortest_path.diameter graph in
          let base = Check_run.edge_age_bounds spec ~diameter in
          let base =
            match edge_age with
            | None -> base
            | Some (fresh, settled, rate) ->
                {
                  base with
                  Monitor.fresh_bound = fresh;
                  settled_bound = settled;
                  tighten_rate = rate;
                }
          in
          let windows =
            match plan with
            | None -> []
            | Some p -> Churn_plan.up_windows p ~graph ~horizon
          in
          Some { base with Monitor.windows }
    in
    let monitor =
      Check_run.default_spec
        ~mode:(if abort then `Abort else `Record)
        ?skew_bound ?edge_age:edge_age_spec ~after:(horizon /. 4.) spec algo
    in
    let checked =
      or_die_invalid (fun () -> Check_run.run ~monitor ~moves ~segment_len cfg)
    in
    Printf.printf "checked %s on %s: %d events monitored\n"
      (Algorithm.kind_name algo) (Topology.spec_name topo)
      checked.Check_run.events_checked;
    match checked.Check_run.violation with
    | None -> Printf.printf "verdict: CONFORMS\n"
    | Some v ->
        Printf.printf "verdict: VIOLATION\n  %s\n"
          (Monitor.violation_to_string v);
        let candidate = { Check_shrink.key; segment_len; moves } in
        let candidate, violation =
          if not shrink then (candidate, v)
          else
            match Check_shrink.shrink ~monitor candidate with
            | None -> (candidate, v)
            | Some o ->
                Printf.printf
                  "shrunk: size %d -> %d (%d evaluations), now %s seed %d \
                   horizon %s\n"
                  o.Check_shrink.initial_size o.Check_shrink.final_size
                  o.Check_shrink.evaluations
                  (Topology.spec_name
                     o.Check_shrink.minimized.Check_shrink.key.Ckey.topology)
                  o.Check_shrink.minimized.Check_shrink.key.Ckey.seed
                  (Printf.sprintf "%g"
                     o.Check_shrink.minimized.Check_shrink.key.Ckey.horizon);
                (o.Check_shrink.minimized, o.Check_shrink.violation)
        in
        (match out with
        | None -> ()
        | Some path ->
            Repro.save ~path
              {
                Repro.monitor = { monitor with Monitor.mode = `Record };
                expected = violation;
                segment_len = candidate.Check_shrink.segment_len;
                moves = candidate.Check_shrink.moves;
                key = candidate.Check_shrink.key;
              };
            Printf.printf "wrote repro to %s\n" path);
        exit 1
  in
  let term =
    Term.(
      const action $ spec_term $ topology_arg $ algo_arg $ horizon_arg
      $ seed_arg $ loss_arg $ plan_arg $ moves_arg $ segment_len_arg
      $ skew_flag $ abort_flag $ shrink_flag $ out_arg $ recorded_arg
      $ churn_arg $ edge_age_arg)
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Run one simulation under an online invariant monitor — or \
          re-check a recorded live run offline with --recorded; on \
          violation, optionally shrink it and write a .repro artifact. \
          Exits 1 on violation.")
    term

let check_replay_cmd =
  let files_arg =
    Arg.(
      non_empty
      & pos_all file []
      & info [] ~docv:"REPRO" ~doc:".repro files to replay.")
  in
  let action files jobs =
    let jobs = if jobs = 0 then Gcs_util.Pool.default_jobs () else jobs in
    if jobs < 0 then or_die (Error "jobs must be >= 0");
    let repros =
      Array.of_list (List.map (fun f -> or_die (Repro.load f)) files)
    in
    (* Replays shard across domains; reports print in input order, so the
       output bytes are independent of --jobs. *)
    let outcomes = Gcs_util.Pool.map ~jobs Repro.replay repros in
    let ok = ref true in
    Array.iteri
      (fun i t ->
        print_string (Repro.report t outcomes.(i));
        match outcomes.(i) with
        | Ok Repro.Reproduced -> ()
        | Ok (Repro.Diverged _) | Ok Repro.Missing | Error _ -> ok := false)
      repros;
    if not !ok then exit 1
  in
  let term = Term.(const action $ files_arg $ jobs_repl_arg) in
  Cmd.v
    (Cmd.info "replay"
       ~doc:
         "Re-simulate .repro counterexample artifacts and verify each \
          reproduces its recorded violation exactly. Output is \
          byte-identical for every --jobs value; exits 1 unless every \
          artifact reproduces.")
    term

let check_battery_cmd =
  let topologies_arg =
    Term.(
      const (List.map or_die)
      $ Arg.(
          value
          & opt (list topology_conv)
              [ Ok (Topology.Ring 8); Ok (Topology.Line 9) ]
          & info [ "topologies" ] ~docv:"TOPO,..."
              ~doc:"Comma-separated topology specs to sweep."))
  in
  let algos_arg =
    Arg.(
      value
      & opt (some (list algo_conv)) None
      & info [ "algos" ] ~docv:"ALGO,..."
          ~doc:
            "Comma-separated algorithms (default: all registered; with \
             --byzantine, just ft-gradient-F).")
  in
  let seeds_arg =
    Arg.(
      value & opt int 4
      & info [ "seeds" ] ~docv:"N"
          ~doc:"Seeds per (topology, algorithm) cell.")
  in
  let byz_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "byzantine" ] ~docv:"F"
          ~doc:
            "Containment mode: run every cell under a deterministic \
             Byzantine plan with F liars and check the weakened \
             correct-correct containment bound instead of the faultless \
             envelopes. The ft-gradient algorithm must come back clean; \
             plain gradient cells demonstrate the violation (and shrink \
             and replay like any other).")
  in
  let base_seed_arg =
    Arg.(
      value & opt int 1
      & info [ "base-seed" ] ~docv:"SEED" ~doc:"First seed of each cell.")
  in
  let no_faults_flag =
    Arg.(
      value & flag
      & info [ "no-faults" ]
          ~doc:"Disable the benign fault plans on odd seed indices.")
  in
  let repro_dir_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "repro-dir" ] ~docv:"DIR"
          ~doc:"Write a .repro artifact per violating cell into DIR.")
  in
  let action spec_result topologies algos seeds base_seed no_faults horizon
      jobs repro_dir byz churn =
    let spec = or_die spec_result in
    let jobs = if jobs = 0 then Gcs_util.Pool.default_jobs () else jobs in
    if jobs < 0 then or_die (Error "jobs must be >= 0");
    if byz <> None && churn <> None then
      or_die (Error "--byzantine and --churn cannot be combined");
    let algos =
      match (algos, byz) with
      | Some a, _ -> a
      | None, Some f -> [ Algorithm.Ft_gradient_sync f ]
      | None, None -> Algorithm.all_kinds
    in
    let cells =
      or_die_invalid (fun () ->
          match byz with
          | Some f ->
              Check_run.containment_battery ~jobs ~spec ~algos ~f ~base_seed
                ~topologies ~seeds ~horizon ()
          | None ->
              Check_run.battery ~jobs ~spec ~algos ?churn
                ~faults:(not no_faults) ~base_seed ~topologies ~seeds ~horizon
                ())
    in
    let events =
      List.fold_left (fun a c -> a + c.Check_run.events_checked) 0 cells
    in
    Printf.printf "battery: %d cells (%d topologies x %d algorithms x %d \
                   seeds), %d events monitored\n"
      (List.length cells) (List.length topologies) (List.length algos) seeds
      events;
    match Check_run.violations cells with
    | [] -> Printf.printf "verdict: all cells CONFORM\n"
    | bad ->
        Printf.printf "verdict: %d violating cell(s)\n" (List.length bad);
        List.iteri
          (fun i c ->
            let v = Option.get c.Check_run.violation in
            Printf.printf "  %s %s seed %d: %s\n"
              (Topology.spec_name c.Check_run.key.Ckey.topology)
              c.Check_run.key.Ckey.algo c.Check_run.key.Ckey.seed
              (Monitor.violation_to_string v);
            match repro_dir with
            | None -> ()
            | Some dir ->
                if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
                let path =
                  Filename.concat dir (Printf.sprintf "battery-%02d.repro" i)
                in
                Repro.save ~path
                  {
                    Repro.monitor = c.Check_run.monitor;
                    expected = v;
                    segment_len = 0.;
                    moves = [];
                    key = c.Check_run.key;
                  };
                Printf.printf "    wrote %s\n" path)
          bad;
        exit 1
  in
  let term =
    Term.(
      const action $ spec_term $ topologies_arg $ algos_arg $ seeds_arg
      $ base_seed_arg $ no_faults_flag $ horizon_arg $ jobs_repl_arg
      $ repro_dir_arg $ byz_arg $ churn_arg)
  in
  Cmd.v
    (Cmd.info "battery"
       ~doc:
         "Sweep every algorithm over a grid of topologies, seeds, and \
          benign fault plans with online monitors attached (--byzantine \
          switches to the containment battery under adversarial liars). \
          Exits 1 if any cell violates its envelope.")
    term

let check_cmd =
  Cmd.group
    (Cmd.info "check"
       ~doc:
         "Conformance harness: monitored runs, counterexample shrinking, \
          deterministic .repro artifacts, and the conformance battery.")
    [ check_run_cmd; check_replay_cmd; check_battery_cmd ]

(* gcs-cli explore : exhaustive small-scope model checking. *)

module Choice = Gcs_explore.Choice
module Instance = Gcs_explore.Instance
module Explorer = Gcs_explore.Explorer
module Verdict = Gcs_explore.Verdict

let explore_cmd =
  let topology_arg =
    let doc = "Instance topology (2..6 nodes), e.g. line:2, ring:3." in
    Term.(
      const or_die
      $ Arg.(
          value
          & opt topology_conv (Ok (Topology.Ring 3))
          & info [ "t"; "topology" ] ~docv:"TOPOLOGY" ~doc))
  in
  let seed_arg =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Run seed.")
  in
  let segment_len_arg =
    Arg.(
      value & opt float 8.
      & info [ "segment-len" ] ~docv:"T"
          ~doc:"Real-time length one decision governs.")
  in
  let depth_arg =
    Arg.(
      value & opt int 3
      & info [ "depth" ] ~docv:"D"
          ~doc:"Decisions per execution (horizon = depth * segment-len).")
  in
  let alphabet_arg =
    Arg.(
      value & opt string "extreme"
      & info [ "alphabet" ] ~docv:"ALPHABET"
          ~doc:
            "Decision alphabet: all (9 moves), drift (3), delay (3), \
             extreme (4), or an explicit move list like LF;RB.")
  in
  let plan_arg =
    Arg.(
      value
      & opt (some fault_plan_conv) None
      & info [ "plan"; "fault-plan" ] ~docv:"PLAN"
          ~doc:"Fault plan to explore under (faults subcommand syntax).")
  in
  let rate_lo_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "rate-lo" ] ~docv:"R"
          ~doc:"Override the monitor's lower rate bound (enables rate checks).")
  in
  let rate_hi_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "rate-hi" ] ~docv:"R"
          ~doc:"Override the monitor's upper rate bound (enables rate checks).")
  in
  let skew_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "skew-bound" ] ~docv:"S"
          ~doc:"Also monitor adjacent-pair skew against this bound.")
  in
  let max_states_arg =
    Arg.(
      value & opt int 100_000
      & info [ "max-states" ] ~docv:"N"
          ~doc:"State budget: maximum prefixes to simulate.")
  in
  let dedup_flag =
    Arg.(
      value & flag
      & info [ "dedup" ]
          ~doc:
            "Prune subtrees whose canonicalized engine state was already \
             expanded at the same remaining depth. A pruning heuristic: \
             off by default, and a clean exhaustion with it on is weaker \
             than a full proof.")
  in
  let quantum_arg =
    Arg.(
      value & opt float 1e-9
      & info [ "quantum" ] ~docv:"Q"
          ~doc:"Clock quantization step for state canonicalization.")
  in
  let strategy_arg =
    Arg.(
      value & opt string "bfs"
      & info [ "strategy" ] ~docv:"bfs|dfs"
          ~doc:"Frontier order: bfs (depth-minimal counterexamples) or dfs.")
  in
  let prove_flag =
    Arg.(
      value & flag
      & info [ "prove" ]
          ~doc:
            "Exit 0 only if the full space was exhausted violation-free \
             (exit 3 when the state budget cut exploration short).")
  in
  let json_flag =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Emit the outcome as single-line JSON.")
  in
  let shrink_flag =
    Arg.(
      value & flag
      & info [ "shrink" ]
          ~doc:
            "On violation, delta-debug the trace down to a minimized \
             counterexample before writing the repro.")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE"
          ~doc:"Write a .repro artifact of the (minimized) violation to FILE.")
  in
  let action spec_result topo algo seed segment_len depth alphabet_s plan
      rate_lo rate_hi skew_bound max_states dedup quantum strategy_s prove
      json shrink out =
    let spec = or_die spec_result in
    let alphabet = or_die (Choice.alphabet_of_string alphabet_s) in
    let strategy = or_die (Explorer.strategy_of_string strategy_s) in
    let monitor =
      let base = Check_run.default_spec ~mode:`Abort ?skew_bound spec algo in
      let base =
        match rate_lo with
        | None -> base
        | Some r -> { base with Monitor.rate_lo = r; check_rate = true }
      in
      match rate_hi with
      | None -> base
      | Some r -> { base with Monitor.rate_hi = r; check_rate = true }
    in
    let inst =
      or_die_invalid (fun () ->
          Instance.make ~spec ~topology:topo ~algo ~seed ~segment_len ~depth
            ~alphabet ?fault_plan:plan ~monitor ())
    in
    let outcome = Explorer.explore ~dedup ~quantum ~max_states ~strategy inst in
    let stats = outcome.Explorer.stats in
    if json then print_endline (Verdict.to_json inst outcome)
    else begin
      Printf.printf
        "explored %s on %s: depth %d, alphabet %d (%s), space %d prefixes / \
         %d executions\n"
        (Algorithm.kind_name algo) (Topology.spec_name topo) depth
        (List.length inst.Instance.alphabet)
        (Choice.alphabet_to_string inst.Instance.alphabet)
        (Instance.prefixes inst) (Instance.executions inst);
      Printf.printf
        "states visited %d (%d complete), pruned %d, distinct %d, frontier \
         high-water %d, %d events monitored\n"
        stats.Explorer.states_visited stats.Explorer.executions
        stats.Explorer.pruned stats.Explorer.distinct_states
        stats.Explorer.frontier_high_water stats.Explorer.events_checked
    end;
    match outcome.Explorer.verdict with
    | Explorer.Proved ->
        if not json then
          Printf.printf "verdict: PROVED (%d executions, no violation)\n"
            stats.Explorer.executions
    | Explorer.Budget_exhausted ->
        if not json then
          Printf.printf
            "verdict: BUDGET EXHAUSTED (%d states visited, frontier \
             remaining)\n"
            stats.Explorer.states_visited;
        if prove then exit 3
    | Explorer.Violated { trace; violation } ->
        if not json then
          Printf.printf "verdict: VIOLATION at depth %d, trace %s\n  %s\n"
            (List.length trace)
            (Choice.trace_to_string trace)
            (Monitor.violation_to_string violation);
        let cand, viol =
          if not shrink then (Verdict.candidate inst trace, violation)
          else
            match Verdict.shrink inst ~trace with
            | None -> (Verdict.candidate inst trace, violation)
            | Some o ->
                if not json then
                  Printf.printf "shrunk: size %d -> %d (%d evaluations)\n"
                    o.Check_shrink.initial_size o.Check_shrink.final_size
                    o.Check_shrink.evaluations;
                (o.Check_shrink.minimized, o.Check_shrink.violation)
        in
        (match out with
        | None -> ()
        | Some path ->
            Repro.save ~path (Verdict.repro_of_candidate inst cand ~violation:viol);
            if not json then Printf.printf "wrote repro to %s\n" path);
        exit 1
  in
  let term =
    Term.(
      const action $ spec_term $ topology_arg $ algo_arg $ seed_arg
      $ segment_len_arg $ depth_arg $ alphabet_arg $ plan_arg $ rate_lo_arg
      $ rate_hi_arg $ skew_arg $ max_states_arg $ dedup_flag $ quantum_arg
      $ strategy_arg $ prove_flag $ json_flag $ shrink_flag $ out_arg)
  in
  Cmd.v
    (Cmd.info "explore"
       ~doc:
         "Exhaustively enumerate every execution of a tiny instance \
          (discretized delays x drift lattice as an explicit decision \
          tree) under an online monitor. Exits 0 when the space is clean, \
          1 on a violation (optionally shrunk and written as a .repro), 3 \
          when --prove hit the state budget first.")
    term

(* gcs-cli store ... : inspect and gate against the experiment store. *)

module Store = Gcs_store.Store
module Store_key = Gcs_store.Key
module Outcome = Gcs_store.Outcome

let store_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "store" ] ~docv:"DIR"
        ~doc:
          "Store directory (default: \\$GCS_STORE_DIR, else \
           ~/.cache/gcs).")

let resolve_store_dir = function
  | Some d -> d
  | None -> Store.default_dir ()

let store_stats_cmd =
  let action dir =
    let dir = resolve_store_dir dir in
    let st = Store.open_ ~create:true dir in
    Fun.protect
      ~finally:(fun () -> Store.close st)
      (fun () ->
        Printf.printf "store     : %s\n" (Store.dir st);
        Printf.printf "entries   : %d\n" (Store.length st);
        Printf.printf "log bytes : %d\n" (Store.log_bytes st);
        let by_schema = Hashtbl.create 4 and by_algo = Hashtbl.create 8 in
        let bump tbl k =
          Hashtbl.replace tbl k
            (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k))
        in
        Store.iter st (fun k _ ->
            bump by_schema k.Store_key.schema_version;
            bump by_algo k.Store_key.algo);
        let sorted tbl = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] |> List.sort compare in
        List.iter
          (fun (v, n) -> Printf.printf "schema %d  : %d entries\n" v n)
          (sorted by_schema);
        List.iter
          (fun (a, n) -> Printf.printf "algo %-9s: %d entries\n" a n)
          (sorted by_algo))
  in
  Cmd.v
    (Cmd.info "stats" ~doc:"Entry counts and sizes of an experiment store.")
    Term.(const action $ store_dir_arg)

let store_verify_cmd =
  let action dir =
    let dir = resolve_store_dir dir in
    let st = Store.open_ ~create:true dir in
    let rep =
      Fun.protect ~finally:(fun () -> Store.close st) (fun () -> Store.verify st)
    in
    Printf.printf "records    : %d\n" rep.Store.records;
    Printf.printf "live       : %d\n" rep.Store.live;
    Printf.printf "bytes      : %d\n" rep.Store.bytes;
    Printf.printf "corrupt    : %d\n" rep.Store.corrupt;
    Printf.printf "torn bytes : %d\n" rep.Store.torn_bytes;
    Printf.printf "index      : %s\n" (if rep.Store.index_ok then "ok" else "rebuilt");
    if rep.Store.corrupt > 0 then begin
      prerr_endline "error: store holds corrupt records (re-run gc to drop them)";
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:
         "Re-scan the record log, cross-check the index, and exit non-zero \
          on corrupt records.")
    Term.(const action $ store_dir_arg)

let store_gc_cmd =
  let keep_schema_arg =
    Arg.(
      value
      & opt int Store_key.current_schema_version
      & info [ "keep-schema" ] ~docv:"N"
          ~doc:"Keep only records of this schema version (default: current).")
  in
  let action dir keep_schema =
    let dir = resolve_store_dir dir in
    let st = Store.open_ ~create:true dir in
    Fun.protect
      ~finally:(fun () -> Store.close st)
      (fun () ->
        let dropped = Store.gc ~keep_schema st in
        Printf.printf "dropped %d records, %d live (%d bytes)\n" dropped
          (Store.length st) (Store.log_bytes st))
  in
  Cmd.v
    (Cmd.info "gc"
       ~doc:
         "Compact the record log: drop superseded duplicates, corrupt \
          records, and entries from other schema versions.")
    Term.(const action $ store_dir_arg $ keep_schema_arg)

let store_diff_cmd =
  let csv_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"CSV" ~doc:"Sweep CSV to check against the baseline.")
  in
  let tol_abs_arg =
    Arg.(
      value & opt float 1e-9
      & info [ "tol-abs" ] ~docv:"X" ~doc:"Absolute tolerance per numeric cell.")
  in
  let tol_rel_arg =
    Arg.(
      value & opt float 0.
      & info [ "tol-rel" ] ~docv:"X" ~doc:"Relative tolerance per numeric cell.")
  in
  let action dir csv_path tol_abs tol_rel =
    let dir = resolve_store_dir dir in
    let st = or_die_invalid (fun () -> Store.open_ ~create:false dir) in
    (* Index the baseline by the sweep's identity columns. A triple that
       appears twice (same cell stored under different horizons or specs)
       cannot be gated against unambiguously. *)
    let baseline = Hashtbl.create 64 in
    Fun.protect
      ~finally:(fun () -> Store.close st)
      (fun () ->
        Store.iter st (fun k o ->
            let triple =
              (Topology.spec_name k.Store_key.topology, k.Store_key.algo,
               k.Store_key.seed)
            in
            Hashtbl.replace baseline triple
              (if Hashtbl.mem baseline triple then `Ambiguous else `One o)));
    let content =
      let ic = open_in_bin csv_path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    let lines =
      List.filter (fun l -> l <> "") (String.split_on_char '\n' content)
    in
    let header, data_rows =
      match lines with
      | [] -> or_die (Error "empty CSV")
      | h :: rest -> (or_die (Gcs_util.Csv.parse_line h), rest)
    in
    let col name row =
      let rec go names cells =
        match (names, cells) with
        | n :: _, c :: _ when n = name -> Some c
        | _ :: ns, _ :: cs -> go ns cs
        | _ -> None
      in
      go header row
    in
    let require name row =
      match col name row with
      | Some c -> c
      | None -> or_die (Error (Printf.sprintf "CSV has no %s column" name))
    in
    let drift = ref 0 and missing = ref 0 and ambiguous = ref 0 in
    let out_header =
      [ "topology"; "algorithm"; "seed"; "column"; "baseline"; "measured"; "delta" ]
    in
    print_endline (Gcs_util.Csv.render_row out_header);
    let close_enough a b =
      Float.abs (a -. b)
      <= tol_abs +. (tol_rel *. Float.max (Float.abs a) (Float.abs b))
    in
    List.iter
      (fun line ->
        let row = or_die (Gcs_util.Csv.parse_line line) in
        let topo = require "topology" row in
        let algo = require "algorithm" row in
        let seed =
          match int_of_string_opt (require "seed" row) with
          | Some s -> s
          | None -> or_die (Error ("bad seed in row: " ^ line))
        in
        match Hashtbl.find_opt baseline (topo, algo, seed) with
        | None ->
            incr missing;
            Printf.eprintf "missing from baseline: %s %s seed %d\n" topo algo
              seed
        | Some `Ambiguous ->
            incr ambiguous;
            Printf.eprintf "ambiguous baseline (multiple entries): %s %s seed %d\n"
              topo algo seed
        | Some (`One o) ->
            let expected =
              Report.outcome_row ~label:topo ~algo ~seed o
            in
            let expected_header =
              Report.result_header ~faults:(o.Outcome.fault <> None) ()
            in
            List.iteri
              (fun i name ->
                match (List.nth_opt expected i, col name row) with
                | Some base, Some got when base <> got ->
                    let numeric_ok =
                      match
                        (float_of_string_opt base, float_of_string_opt got)
                      with
                      | Some a, Some b -> close_enough a b
                      | _ -> false
                    in
                    if not numeric_ok then begin
                      incr drift;
                      let delta =
                        match
                          (float_of_string_opt base, float_of_string_opt got)
                        with
                        | Some a, Some b -> Printf.sprintf "%.6g" (b -. a)
                        | _ -> ""
                      in
                      print_endline
                        (Gcs_util.Csv.render_row
                           [
                             topo; algo; string_of_int seed; name; base; got;
                             delta;
                           ])
                    end
                | _ -> ())
              expected_header)
      data_rows;
    Printf.eprintf "diff: %d drifted cells, %d missing rows, %d ambiguous rows\n"
      !drift !missing !ambiguous;
    if !ambiguous > 0 then exit 2;
    if !drift > 0 || !missing > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "diff"
       ~doc:
         "Compare a sweep CSV against a stored baseline, printing \
          out-of-tolerance cells as CSV. Exits 1 on drift or rows missing \
          from the baseline, 2 when the baseline is ambiguous for a row.")
    Term.(const action $ store_dir_arg $ csv_arg $ tol_abs_arg $ tol_rel_arg)

let store_cmd =
  Cmd.group
    (Cmd.info "store"
       ~doc:
         "Inspect, maintain, and gate against the content-addressed \
          experiment store that cache-aware sweeps fill.")
    [ store_stats_cmd; store_verify_cmd; store_gc_cmd; store_diff_cmd ]

let () =
  let info =
    Cmd.info "gcs-cli" ~version:"1.0.0"
      ~doc:"Gradient clock synchronization (Fan & Lynch, PODC 2004) simulator"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            run_cmd; compare_cmd; attack_cmd; bounds_cmd; external_cmd;
            trace_cmd; report_cmd; faults_cmd; sweep_cmd; store_cmd;
            live_cmd; check_cmd; explore_cmd;
          ]))
