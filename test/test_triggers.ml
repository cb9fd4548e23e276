(* The fast/slow trigger logic is the heart of the gradient algorithm; these
   tests pin its semantics level by level. Offsets are o_{v,w} = own - w. *)

let fast = Gcs_core.Gradient_sync.fast_trigger ~kappa:1.
let slow = Gcs_core.Gradient_sync.slow_trigger ~kappa:1.

let check = Alcotest.(check bool)

let test_no_neighbors () =
  check "no neighbors never fast" false (fast ~offsets:[||]);
  check "no neighbors is slow" true (slow ~offsets:[||])

let test_balanced () =
  check "all zero not fast" false (fast ~offsets:[| 0.; 0. |]);
  check "all zero slow" true (slow ~offsets:[| 0.; 0. |])

let test_level0_fast () =
  (* Neighbor ahead by 1.5 kappa (offset -1.5), nobody behind: level 0 fast
     condition (ahead >= kappa, behind <= kappa). *)
  check "pulled up" true (fast ~offsets:[| -1.5; 0. |])

let test_fast_blocked_by_laggard () =
  (* A neighbor ahead by 1.5 but another behind by 2: level 0 needs
     behind <= 1, level 1 needs ahead >= 3. Blocked. *)
  check "blocked" false (fast ~offsets:[| -1.5; 2. |])

let test_level1_fast () =
  (* Ahead by 3.5, behind by 2.5: level 1 (threshold 3) applies. *)
  check "level 1 fires" true (fast ~offsets:[| -3.5; 2.5 |])

let test_level_mismatch () =
  (* Ahead by 3.9 (s=1 threshold 3 satisfied), but behind by 3.5 > 3 and
     ahead < 5 (s=2): no level works. *)
  check "no level" false (fast ~offsets:[| -3.9; 3.5 |])

let test_slow_level1 () =
  (* Behind by 2.5 (>= 2s with s=1), ahead 1.5 <= 2: slow holds. *)
  check "slow level 1" true (slow ~offsets:[| 2.5; -1.5 |])

let test_slow_blocked () =
  (* Behind by 2.5 but ahead by 3: s=1 fails (ahead > 2), s=2 needs
     behind >= 4. *)
  check "slow blocked" false (slow ~offsets:[| 2.5; -3. |])

let test_exact_thresholds () =
  (* ahead exactly kappa satisfies level 0 (>=); behind exactly kappa
     satisfies the universal part (<=). *)
  check "boundary fast" true (fast ~offsets:[| -1.; 1. |]);
  (* behind exactly 0 with s=0: trivially slow. *)
  check "boundary slow" true (slow ~offsets:[| 0. |])

let test_scaling_invariance () =
  (* Triggers scale with kappa. *)
  let fast_k k = Gcs_core.Gradient_sync.fast_trigger ~kappa:k in
  check "kappa 2, gap 3" true (fast_k 2. ~offsets:[| -3.; 0. |]);
  check "kappa 4, gap 3" false (fast_k 4. ~offsets:[| -3.; 0. |])

(* A lag of +inf or NaN meets no level, so the search must answer false
   instead of stepping through levels up to a bound that is +inf or NaN
   itself. An infinite lead with a finite lag still finds its level. *)
let test_non_finite_offsets () =
  check "fast, +inf and -inf" false
    (fast ~offsets:[| infinity; neg_infinity |]);
  check "slow, NaN" false (slow ~offsets:[| Float.nan; 0. |]);
  check "slow, +inf and -inf" false
    (slow ~offsets:[| infinity; neg_infinity |]);
  check "fast, NaN" false (fast ~offsets:[| Float.nan; -3. |]);
  check "fast, leader at -inf" true (fast ~offsets:[| neg_infinity; 0. |]);
  check "slow, laggard at +inf" true (slow ~offsets:[| infinity; -0. |])

(* The triggers by brute force over the levels, one neighbour at a time:
   fast holds at level s when some neighbour leads by at least
   (2s + 1) * kappa and none lags by more; slow, with 2s * kappa and the
   roles swapped. Finite offsets stay within [bound], so no level past
   bound / kappa + 2 can hold where an earlier one does not. *)
let reference_trigger ~fast ~kappa ~bound o =
  let lead x = if fast then -.x else x and lag x = if fast then x else -.x in
  let holds s =
    let level = float_of_int ((2 * s) + if fast then 1 else 0) *. kappa in
    Array.exists (fun x -> lead x >= level) o
    && Array.for_all (fun x -> lag x <= level) o
  in
  let last = int_of_float (bound /. kappa) + 2 in
  let rec any s = s <= last && (holds s || any (s + 1)) in
  if fast then Array.length o > 0 && any 0 else Array.length o = 0 || any 0

let prop_triggers_match_reference =
  let bound = 12. in
  let offset =
    QCheck.Gen.(
      frequency
        [
          (6, float_range (-.bound) bound);
          (3, map (fun k -> float_of_int k) (int_range (-12) 12));
          (1, return infinity);
          (1, return neg_infinity);
          (1, return Float.nan);
          (1, return (-0.));
        ])
  in
  QCheck.Test.make ~name:"triggers = brute-force level search" ~count:3000
    QCheck.(
      make
        ~print:(fun (kappa, o) ->
          Printf.sprintf "kappa %h, offsets [%s]" kappa
            (String.concat "; " (List.map (Printf.sprintf "%h") o)))
        Gen.(pair (float_range 0.25 4.) (list_size (int_range 0 6) offset)))
    (fun (kappa, o) ->
      let o = Array.of_list o in
      Gcs_core.Gradient_sync.fast_trigger ~kappa ~offsets:o
      = reference_trigger ~fast:true ~kappa ~bound o
      && Gcs_core.Gradient_sync.slow_trigger ~kappa ~offsets:o
         = reference_trigger ~fast:false ~kappa ~bound o)

(* The paper's key structural fact (Kuhn-Oshman Lemma): the fast and slow
   *conditions* are mutually exclusive. Our implementation runs slow
   whenever fast does not hold, which is safe given this property. *)
let prop_mutually_exclusive =
  QCheck.Test.make ~name:"fast and slow triggers are mutually exclusive"
    ~count:2000
    QCheck.(list_of_size (Gen.int_range 1 6) (float_range (-10.) 10.))
    (fun offsets ->
      let o = Array.of_list offsets in
      not (fast ~offsets:o && slow ~offsets:o))

let prop_fast_needs_leader =
  QCheck.Test.make ~name:"fast requires a neighbor ahead by >= kappa"
    ~count:1000
    QCheck.(list_of_size (Gen.int_range 1 6) (float_range (-10.) 10.))
    (fun offsets ->
      let o = Array.of_list offsets in
      if fast ~offsets:o then Array.exists (fun x -> -.x >= 1.) o else true)

let prop_uniform_shift_down_keeps_fast =
  (* If everyone moves ahead of us by the same extra amount, fast stays. *)
  QCheck.Test.make ~name:"falling further behind keeps the fast trigger"
    ~count:500
    QCheck.(
      pair
        (list_of_size (Gen.int_range 1 5) (float_range (-5.) 5.))
        (float_range 0. 5.))
    (fun (offsets, delta) ->
      let o = Array.of_list offsets in
      if fast ~offsets:o then
        fast ~offsets:(Array.map (fun x -> x -. delta) o)
      else true)

(* The ft gradient's estimate filter: discard outside the (2f+1)*kappa
   window, then trim f from each end of the survivors — but never below
   2f+1 kept. *)
let filter = Gcs_core.Ft_gradient.filter_offsets ~kappa:1.

let sorted a =
  let c = Array.copy a in
  Array.sort Float.compare c;
  c

let check_filter name ~f input expected =
  Alcotest.(check (array (float 0.)))
    name (sorted expected)
    (sorted (filter ~f (Array.of_list input)))

let test_filter_window_discards () =
  (* f = 1: window is +/- 3. Outrageous estimates vanish entirely (a liar
     degrades to a crashed neighbor), in-window ones survive untouched. *)
  check_filter "outrageous lie dropped" ~f:1 [ -0.5; 0.2; 100. ]
    [| -0.5; 0.2 |];
  check_filter "both signs dropped" ~f:1 [ -50.; -0.5; 0.2; 100. ]
    [| -0.5; 0.2 |];
  check_filter "window edge survives" ~f:1 [ -3.; 3. ] [| -3.; 3. |];
  check_filter "just outside dropped" ~f:1 [ -3.01; 3.01 ] [||];
  (* f = 2 widens the window to +/- 5. *)
  check_filter "wider window at f=2" ~f:2 [ -4.; 4.; 6. ] [| -4.; 4. |]

let test_filter_trim_floor () =
  (* f = 1: trimming needs strictly more than 2f+1 = 3 survivors, so at
     degree <= 4 the trim is inert — the extremes may be a single genuine
     leader whose signal trimming would erase. *)
  check_filter "n=3: no trim" ~f:1 [ -2.; 0.; 2. ] [| -2.; 0.; 2. |];
  check_filter "n=4: no trim" ~f:1 [ -2.; -1.; 0.; 2. ] [| -2.; -1.; 0.; 2. |];
  (* n=5 keeps 2f+1 = 3: one from each end goes. *)
  check_filter "n=5: trims one per end" ~f:1 [ -2.; -1.; 0.; 1.; 2. ]
    [| -1.; 0.; 1. |];
  check_filter "n=6: full trim" ~f:1 [ -2.; -1.; -0.5; 0.; 1.; 2. ]
    [| -1.; -0.5; 0.; 1. |];
  (* f=2 would like to trim 2 per end, but n=7 only allows 1 each way
     before hitting the 2f+1 = 5 floor. *)
  check_filter "f=2 floor binds" ~f:2 [ -3.; -2.; -1.; 0.; 1.; 2.; 3. ]
    [| -2.; -1.; 0.; 1.; 2. |];
  (* f=0 never trims, but the +/- kappa window still applies. *)
  check_filter "f=0: no trim, window only" ~f:0 [ -9.; -1.; 0.; 1.; 9. ]
    [| -1.; 0.; 1. |]

let prop_filter_benign_inert =
  (* With every estimate inside half the window, the filter is exactly the
     identity on sparse neighborhoods (n <= 2f+2) — the graceful-degradation
     contract the benign golden row relies on. *)
  QCheck.Test.make ~name:"ft filter inert on benign sparse neighborhoods"
    ~count:500
    QCheck.(list_of_size (Gen.int_range 0 4) (float_range (-1.4) 1.4))
    (fun offsets ->
      let o = Array.of_list offsets in
      filter ~f:1 o = o)

let suite =
  [
    Alcotest.test_case "no neighbors" `Quick test_no_neighbors;
    Alcotest.test_case "balanced" `Quick test_balanced;
    Alcotest.test_case "level 0 fast" `Quick test_level0_fast;
    Alcotest.test_case "fast blocked" `Quick test_fast_blocked_by_laggard;
    Alcotest.test_case "level 1 fast" `Quick test_level1_fast;
    Alcotest.test_case "level mismatch" `Quick test_level_mismatch;
    Alcotest.test_case "slow level 1" `Quick test_slow_level1;
    Alcotest.test_case "slow blocked" `Quick test_slow_blocked;
    Alcotest.test_case "exact thresholds" `Quick test_exact_thresholds;
    Alcotest.test_case "kappa scaling" `Quick test_scaling_invariance;
    Alcotest.test_case "non-finite offsets" `Quick test_non_finite_offsets;
    QCheck_alcotest.to_alcotest prop_triggers_match_reference;
    QCheck_alcotest.to_alcotest prop_mutually_exclusive;
    QCheck_alcotest.to_alcotest prop_fast_needs_leader;
    QCheck_alcotest.to_alcotest prop_uniform_shift_down_keeps_fast;
    Alcotest.test_case "ft filter window" `Quick test_filter_window_discards;
    Alcotest.test_case "ft filter trim floor" `Quick test_filter_trim_floor;
    QCheck_alcotest.to_alcotest prop_filter_benign_inert;
  ]
