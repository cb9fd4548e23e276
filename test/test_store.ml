module Key = Gcs_store.Key
module Outcome = Gcs_store.Outcome
module Store = Gcs_store.Store
module Fault_plan = Gcs_sim.Fault_plan
module Topology = Gcs_graph.Topology
module Runner = Gcs_core.Runner
module Algorithm = Gcs_core.Algorithm
module Parallel_run = Gcs_core.Parallel_run

let temp_dir () =
  let f = Filename.temp_file "gcs_store" "" in
  Sys.remove f;
  f

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir
  end

let with_dir f =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let mk_key ?schema_version ?drift ?loss ?fault_plan ?(topology = Topology.Ring 8)
    ?(algo = "gradient") ?(seed = 1) () =
  Key.make ?schema_version ?drift ?loss ?fault_plan ~rho:0.01 ~mu:0.1
    ~d_min:0.5 ~d_max:1.5 ~beacon_period:1. ~kappa:2.16
    ~staleness_limit:4. ~topology ~algo ~horizon:60. ~sample_period:1.
    ~warmup:15. ~seed ()

(* Deliberately awkward floats: the codec must round-trip them exactly. *)
let mk_outcome ?(messages = 1234) ?fault () =
  {
    Outcome.nodes = 8;
    edges = 8;
    diameter = 4;
    max_global = 0.1 +. 0.2;
    max_local = 1. /. 3.;
    mean_local = 0.123456789012345678;
    p99_local = 1e-17;
    final_global = Float.pi;
    final_local = 0.;
    samples_used = 46;
    messages;
    dropped = 7;
    dropped_faults = 3;
    events = 5000;
    jump_count = 2;
    jump_total = 0.7;
    jump_max = sqrt 2.;
    fault;
  }

let plan_of_string s =
  match Fault_plan.of_string s with Ok p -> p | Error e -> failwith e

(* --- canonical keys --- *)

let test_key_round_trip () =
  let plan = plan_of_string "partition@10:edges=1-2,3-4;heal@20:edges=1-2,3-4" in
  List.iter
    (fun k ->
      match Key.decode (Key.encode k) with
      | Ok k' ->
          Alcotest.(check bool) "decode (encode k) = k" true (k = k');
          Alcotest.(check string) "same hash" (Key.hash k) (Key.hash k')
      | Error e -> Alcotest.failf "decode failed: %s" e)
    [
      mk_key ();
      mk_key ~fault_plan:plan ();
      mk_key ~drift:"walk:0.5:0.01" ~loss:0.125 ();
      mk_key ~topology:(Topology.Random_gnp (20, 0.05)) ~seed:77 ();
      mk_key ~schema_version:3 ~algo:"tree" ();
    ]

let test_key_decode_rejects () =
  let fails s =
    match Key.decode s with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "decoded %S" s
  in
  fails "";
  fails "nonsense";
  fails "gcs.store:key:9\nschema=1\n";
  (* Missing fields after the magic. *)
  fails "gcs.store:key:1\nschema=1\n";
  (* A trailing unparsed line must not be silently ignored. *)
  fails (Key.encode (mk_key ()) ^ "extra=1\n");
  (* Field out of order. *)
  fails
    (let s = Key.encode (mk_key ()) in
     match String.split_on_char '\n' s with
     | magic :: a :: b :: rest ->
         String.concat "\n" (magic :: b :: a :: rest)
     | _ -> assert false)

let test_key_hash_canonicalization () =
  (* Same faults written differently: reversed endpoint pairs, reordered
     edge lists, duplicated cut members. *)
  let a = plan_of_string "partition@10:edges=1-2,3-4;heal@20:cut=0,1,2" in
  let b =
    Fault_plan.of_events
      [
        Fault_plan.Link_partition
          { at = 10.; edges = Fault_plan.Edges [ (4, 3); (2, 1) ] };
        Fault_plan.Link_heal { at = 20.; edges = Fault_plan.Cut [ 2; 0; 1; 1 ] };
      ]
  in
  Alcotest.(check string) "reordered plans hash identically"
    (Key.hash (mk_key ~fault_plan:a ()))
    (Key.hash (mk_key ~fault_plan:b ()));
  Alcotest.(check bool) "different seed, different hash" false
    (Key.hash (mk_key ~seed:1 ()) = Key.hash (mk_key ~seed:2 ()));
  Alcotest.(check bool) "different schema, different hash" false
    (Key.hash (mk_key ~schema_version:1 ())
    = Key.hash (mk_key ~schema_version:2 ()))

(* Keys round-trip and equal-but-reordered fault-plan configurations hash
   identically, over randomized plans. *)
let qcheck_key_round_trip_and_stability =
  let open QCheck in
  let pair_gen =
    Gen.map2 (fun u v -> (u, (v + 1) mod 8)) (Gen.int_range 0 7)
      (Gen.int_range 0 6)
  in
  let gen =
    Gen.map3
      (fun pairs cut seed -> (pairs, cut, seed))
      (Gen.list_size (Gen.int_range 1 5) pair_gen)
      (Gen.list_size (Gen.int_range 1 4) (Gen.int_range 0 7))
      (Gen.int_range 0 1000)
  in
  let arb =
    QCheck.make gen ~print:(fun (pairs, cut, seed) ->
        Printf.sprintf "pairs=%s cut=%s seed=%d"
          (String.concat ","
             (List.map (fun (u, v) -> Printf.sprintf "%d-%d" u v) pairs))
          (String.concat "," (List.map string_of_int cut))
          seed)
  in
  QCheck.Test.make ~count:200
    ~name:"key round-trips; reordered plans hash identically" arb
    (fun (pairs, cut, seed) ->
      let plan edges_list cut_list =
        Fault_plan.of_events
          [
            Fault_plan.Link_partition
              { at = 10.; edges = Fault_plan.Edges edges_list };
            Fault_plan.Link_heal { at = 20.; edges = Fault_plan.Cut cut_list };
          ]
      in
      let flip (u, v) = (v, u) in
      let k1 = mk_key ~seed ~fault_plan:(plan pairs cut) () in
      let k2 =
        mk_key ~seed
          ~fault_plan:(plan (List.rev_map flip pairs) (cut @ List.rev cut))
          ()
      in
      Key.decode (Key.encode k1) = Ok k1 && Key.hash k1 = Key.hash k2)

(* --- outcome codec --- *)

let test_outcome_round_trip () =
  List.iter
    (fun o ->
      match Outcome.decode (Outcome.encode o) with
      | Ok o' -> Alcotest.(check bool) "bit-identical" true (o = o')
      | Error e -> Alcotest.failf "decode failed: %s" e)
    [
      mk_outcome ();
      mk_outcome
        ~fault:{ Outcome.transient = 4.25; fault_drops = 12; resync = Some 33.5 }
        ();
      mk_outcome
        ~fault:{ Outcome.transient = 0.; fault_drops = 0; resync = None }
        ();
    ]

(* --- durable store --- *)

let test_store_put_find () =
  with_dir (fun dir ->
      let st = Store.open_ dir in
      let k1 = mk_key ~seed:1 () and k2 = mk_key ~seed:2 () in
      let o1 = mk_outcome ~messages:1 () and o2 = mk_outcome ~messages:2 () in
      Store.put st k1 o1;
      Store.put st k2 o2;
      Alcotest.(check int) "length" 2 (Store.length st);
      Alcotest.(check bool) "mem" true (Store.mem st k1);
      Alcotest.(check bool) "find k1" true (Store.find st k1 = Some o1);
      Alcotest.(check bool) "find k2" true (Store.find st k2 = Some o2);
      Alcotest.(check bool) "absent" true (Store.find st (mk_key ~seed:3 ()) = None);
      (* Re-putting a key replaces its value. *)
      let o1' = mk_outcome ~messages:111 () in
      Store.put st k1 o1';
      Alcotest.(check int) "replace keeps length" 2 (Store.length st);
      Alcotest.(check bool) "replaced" true (Store.find st k1 = Some o1');
      Store.close st)

let test_store_persistence () =
  with_dir (fun dir ->
      let k = mk_key () and o = mk_outcome () in
      let st = Store.open_ dir in
      Store.put st k o;
      Store.close st;
      (* Clean reopen takes the index fast path and loads records lazily. *)
      let st = Store.open_ dir in
      Alcotest.(check int) "length after reopen" 1 (Store.length st);
      Alcotest.(check bool) "find after reopen" true (Store.find st k = Some o);
      let rep = Store.verify st in
      Alcotest.(check bool) "index ok" true rep.Store.index_ok;
      Store.close st;
      (* The index is an acceleration structure only: deleting it must
         lose nothing. *)
      Sys.remove (Filename.concat dir "index");
      let st = Store.open_ dir in
      Alcotest.(check bool) "find after index loss" true (Store.find st k = Some o);
      Store.close st)

let append_to_log dir bytes =
  let oc =
    open_out_gen [ Open_wronly; Open_append; Open_binary ] 0o644
      (Filename.concat dir "log")
  in
  output_string oc bytes;
  close_out oc

let test_torn_tail_recovery () =
  with_dir (fun dir ->
      let k = mk_key () and o = mk_outcome () in
      let st = Store.open_ dir in
      Store.put st k o;
      Store.close st;
      (* Simulate a crash mid-append: a half-written record at the tail. *)
      append_to_log dir "GCSR1 180 250 0123456789abcdef0123456789abcdef\ngcs.st";
      let st = Store.open_ dir in
      Alcotest.(check int) "torn record dropped" 1 (Store.length st);
      Alcotest.(check bool) "survivor intact" true (Store.find st k = Some o);
      let rep = Store.verify st in
      Alcotest.(check int) "log clean again" 0 rep.Store.torn_bytes;
      (* The truncated log must accept new appends. *)
      let k2 = mk_key ~seed:9 () in
      Store.put st k2 o;
      Store.close st;
      let st = Store.open_ dir in
      Alcotest.(check int) "append after recovery" 2 (Store.length st);
      Store.close st)

let test_corrupt_record_skipped () =
  with_dir (fun dir ->
      let k1 = mk_key ~seed:1 () and k2 = mk_key ~seed:2 () in
      let o = mk_outcome () in
      let st = Store.open_ dir in
      Store.put st k1 o;
      Store.put st k2 o;
      Store.close st;
      (* Flip one payload byte inside the first record: framing stays
         intact, the digest no longer matches. *)
      let path = Filename.concat dir "log" in
      let ic = open_in_bin path in
      let content = really_input_string ic (in_channel_length ic) in
      close_in ic;
      let body = String.index content '\n' + 10 in
      let mutated = Bytes.of_string content in
      Bytes.set mutated body
        (if Bytes.get mutated body = 'x' then 'y' else 'x');
      let oc = open_out_bin path in
      output_string oc (Bytes.to_string mutated);
      close_out oc;
      Sys.remove (Filename.concat dir "index");
      let st = Store.open_ dir in
      Alcotest.(check int) "corrupt record dropped" 1 (Store.length st);
      Alcotest.(check bool) "later record survives" true
        (Store.find st k2 = Some o);
      let rep = Store.verify st in
      Alcotest.(check int) "reported corrupt" 1 rep.Store.corrupt;
      Store.close st)

let test_gc_by_schema () =
  with_dir (fun dir ->
      let st = Store.open_ dir in
      let o = mk_outcome () in
      let current = mk_key ~seed:1 () in
      Store.put st current o;
      Store.put st (mk_key ~schema_version:0 ~seed:2 ()) o;
      Store.put st (mk_key ~schema_version:0 ~seed:3 ()) o;
      (* A superseded duplicate is also gc fodder. *)
      Store.put st current (mk_outcome ~messages:9 ());
      let dropped = Store.gc st in
      Alcotest.(check int) "dropped stale + superseded" 3 dropped;
      Alcotest.(check int) "one live record" 1 (Store.length st);
      Alcotest.(check bool) "latest value kept" true
        (Store.find st current = Some (mk_outcome ~messages:9 ()));
      Store.close st;
      let st = Store.open_ dir in
      Alcotest.(check int) "compaction durable" 1 (Store.length st);
      Store.close st)

let test_iter_deterministic () =
  with_dir (fun dir ->
      let st = Store.open_ dir in
      let keys = List.init 5 (fun i -> mk_key ~seed:i ()) in
      List.iter (fun k -> Store.put st k (mk_outcome ())) keys;
      let order st =
        let acc = ref [] in
        Store.iter st (fun k _ -> acc := Key.hash k :: !acc);
        List.rev !acc
      in
      let o1 = order st in
      Alcotest.(check (list string)) "hash order" (List.sort compare o1) o1;
      Store.close st;
      let st = Store.open_ dir in
      Alcotest.(check (list string)) "same order after reopen" o1 (order st);
      Store.close st)

(* --- cache-aware execution --- *)

let sweep_topo = Topology.Ring 8

let sweep_keys seeds =
  Array.of_list
    (List.map
       (fun seed ->
         Runner.store_key ~spec:(Gcs_core.Spec.make ()) ~topology:sweep_topo
           ~algo:Algorithm.Gradient_sync ~horizon:20. ~seed ())
       seeds)

let test_run_cached_cold_warm () =
  with_dir (fun dir ->
      let seeds = [ 1; 2; 3; 4 ] in
      let keys = sweep_keys seeds in
      let direct =
        Array.of_list
          (List.map
             (fun seed ->
               Runner.outcome
                 (Runner.run
                    (Runner.config ~algo:Algorithm.Gradient_sync ~horizon:20.
                       ~seed
                       (Topology.build_for_seed sweep_topo ~seed))))
             seeds)
      in
      let fresh, _ = Parallel_run.run_cached keys in
      Alcotest.(check bool) "storeless = direct runs" true (fresh = direct);
      let st = Store.open_ dir in
      let cold, cold_stats = Parallel_run.run_cached ~store:st keys in
      Alcotest.(check int) "cold misses" 4 cold_stats.Parallel_run.misses;
      Alcotest.(check bool) "cold simulated" true
        (cold_stats.Parallel_run.fresh_dispatches > 0);
      let warm, warm_stats = Parallel_run.run_cached ~store:st keys in
      Alcotest.(check int) "warm hits" 4 warm_stats.Parallel_run.hits;
      Alcotest.(check int) "warm misses" 0 warm_stats.Parallel_run.misses;
      Alcotest.(check int) "warm dispatches" 0
        warm_stats.Parallel_run.fresh_dispatches;
      Alcotest.(check bool) "warm = cold" true (warm = cold);
      Alcotest.(check bool) "cached = storeless" true (warm = fresh);
      (* Sharding must not change cached results either. *)
      let par, _ = Parallel_run.run_cached ~jobs:2 ~store:st keys in
      Alcotest.(check bool) "jobs-independent" true (par = warm);
      Store.close st)

let test_run_cached_resume_half () =
  with_dir (fun dir ->
      let keys = sweep_keys [ 1; 2; 3; 4; 5; 6 ] in
      let st = Store.open_ dir in
      (* Pretend a killed sweep finished only the first half. *)
      let _ = Parallel_run.run_cached ~store:st (Array.sub keys 0 3) in
      Store.close st;
      let st = Store.open_ dir in
      let resumed, stats = Parallel_run.run_cached ~store:st keys in
      Alcotest.(check int) "resume hits" 3 stats.Parallel_run.hits;
      Alcotest.(check int) "resume misses" 3 stats.Parallel_run.misses;
      let full, _ = Parallel_run.run_cached keys in
      Alcotest.(check bool) "resumed = uninterrupted" true (resumed = full);
      Store.close st)

(* A key naming no valid run fails the whole batch before any cell runs:
   the good cells ahead of it are neither simulated nor persisted. *)
let test_run_cached_bad_key_first () =
  with_dir (fun dir ->
      let bad =
        Runner.store_key ~spec:(Gcs_core.Spec.make ()) ~topology:sweep_topo
          ~algo:Algorithm.Gradient_sync ~horizon:20. ~seed:3
          ~fault_plan:(plan_of_string "crash@5:node=9")
          ()
      in
      let keys = Array.append (sweep_keys [ 1; 2 ]) [| bad |] in
      let st = Store.open_ dir in
      Alcotest.check_raises "bad key"
        (Invalid_argument
           "fault plan on ring:8: crash: node 9 out of range [0, 8)")
        (fun () -> ignore (Parallel_run.run_cached ~jobs:1 ~store:st keys));
      Alcotest.(check int) "nothing simulated or persisted" 0 (Store.length st);
      Store.close st)

(* Fresh results and their stored outcomes must render the same CSV row. *)
let test_outcome_row_identity () =
  let topo = Topology.Ring 8 in
  let seed = 5 in
  let graph = Topology.build_for_seed topo ~seed in
  let plan = plan_of_string "partition@5:cut=0,1;heal@10:cut=0,1" in
  let cfg =
    Runner.config ~algo:Algorithm.Gradient_sync ~horizon:20. ~seed
      ~fault_plan:plan graph
  in
  let r = Runner.run cfg in
  let direct = Gcs_core.Report.result_row ~label:(Topology.spec_name topo) cfg r in
  let o = Runner.outcome r in
  (* Round the outcome through the store codec first: the row must survive
     persistence, not just the in-memory record. *)
  let o' =
    match Outcome.decode (Outcome.encode o) with
    | Ok o' -> o'
    | Error e -> Alcotest.failf "outcome codec: %s" e
  in
  let via_store =
    Gcs_core.Report.outcome_row ~label:(Topology.spec_name topo)
      ~algo:(Algorithm.kind_name Algorithm.Gradient_sync) ~seed o'
  in
  Alcotest.(check (list string)) "row identical through the store" direct
    via_store

let suite =
  [
    Alcotest.test_case "key round trip" `Quick test_key_round_trip;
    Alcotest.test_case "key decode rejects" `Quick test_key_decode_rejects;
    Alcotest.test_case "key hash canonicalization" `Quick
      test_key_hash_canonicalization;
    QCheck_alcotest.to_alcotest qcheck_key_round_trip_and_stability;
    Alcotest.test_case "outcome round trip" `Quick test_outcome_round_trip;
    Alcotest.test_case "put/find/replace" `Quick test_store_put_find;
    Alcotest.test_case "persistence across reopen" `Quick test_store_persistence;
    Alcotest.test_case "torn tail recovery" `Quick test_torn_tail_recovery;
    Alcotest.test_case "corrupt record skipped" `Quick
      test_corrupt_record_skipped;
    Alcotest.test_case "gc by schema" `Quick test_gc_by_schema;
    Alcotest.test_case "iter deterministic" `Quick test_iter_deterministic;
    Alcotest.test_case "run_cached cold/warm" `Quick test_run_cached_cold_warm;
    Alcotest.test_case "run_cached resume" `Quick test_run_cached_resume_half;
    Alcotest.test_case "run_cached bad key fails first" `Quick
      test_run_cached_bad_key_first;
    Alcotest.test_case "outcome_row identity" `Quick test_outcome_row_identity;
  ]
