module Drift = Gcs_clock.Drift
module Hc = Gcs_clock.Hardware_clock
module Prng = Gcs_util.Prng

let band = Drift.band ~rho:0.02

let rates_of_schedule pattern ~seed =
  let rng = Prng.create ~seed in
  Drift.schedule pattern ~band ~t0:0. ~horizon:100. ~rng

let all_in_band points =
  List.for_all (fun (_, r) -> r >= 1. && r <= 1.02 +. 1e-12) points

let times_sorted points =
  let rec go = function
    | (t1, _) :: ((t2, _) :: _ as rest) -> t1 <= t2 && go rest
    | _ -> true
  in
  go points

let test_constant () =
  match rates_of_schedule (Drift.Constant 1.01) ~seed:1 with
  | [ (0., 1.01) ] -> ()
  | _ -> Alcotest.fail "unexpected constant schedule"

let test_constant_clamped () =
  match rates_of_schedule (Drift.Constant 5.) ~seed:1 with
  | [ (0., r) ] -> Alcotest.(check (float 1e-12)) "clamped" 1.02 r
  | _ -> Alcotest.fail "unexpected shape"

let test_extremes () =
  (match rates_of_schedule Drift.Extreme_low ~seed:1 with
  | [ (0., 1.) ] -> ()
  | _ -> Alcotest.fail "low");
  match rates_of_schedule Drift.Extreme_high ~seed:1 with
  | [ (0., r) ] -> Alcotest.(check (float 1e-12)) "high" 1.02 r
  | _ -> Alcotest.fail "high shape"

let test_nan_means_midpoint () =
  match rates_of_schedule (Drift.Constant nan) ~seed:1 with
  | [ (0., r) ] -> Alcotest.(check (float 1e-12)) "midpoint" 1.01 r
  | _ -> Alcotest.fail "shape"

let test_two_phase () =
  let pts =
    rates_of_schedule
      (Drift.Two_phase { switch = 50.; before = 1.; after = 1.02 })
      ~seed:1
  in
  Alcotest.(check int) "two points" 2 (List.length pts);
  Alcotest.(check bool) "in band" true (all_in_band pts)

let test_square_alternates () =
  let pts =
    rates_of_schedule
      (Drift.Square { period = 20.; low = 1.; high = 1.02; phase = 0. })
      ~seed:1
  in
  Alcotest.(check bool) "sorted" true (times_sorted pts);
  let rates = List.map snd pts in
  let rec alternates = function
    | a :: b :: rest -> a <> b && alternates (b :: rest)
    | _ -> true
  in
  Alcotest.(check bool) "alternates" true (alternates rates)

let prop_walk_in_band =
  QCheck.Test.make ~name:"random walk stays in the drift band" ~count:100
    QCheck.small_nat
    (fun seed ->
      let pts =
        rates_of_schedule (Drift.Random_walk { step = 2.; sigma = 0.01 }) ~seed
      in
      all_in_band pts && times_sorted pts)

let prop_sinusoid_in_band =
  QCheck.Test.make ~name:"sinusoid stays in the drift band" ~count:50
    QCheck.small_nat
    (fun seed ->
      let pts =
        rates_of_schedule
          (Drift.Sinusoid { period = 30.; phase = float_of_int seed; step = 3. })
          ~seed
      in
      all_in_band pts && times_sorted pts)

let test_explicit_rejects_unsorted () =
  Alcotest.check_raises "unsorted"
    (Invalid_argument "Drift: explicit times decrease") (fun () ->
      ignore
        (rates_of_schedule (Drift.Explicit [ (5., 1.); (3., 1.01) ]) ~seed:1))

let test_explicit_extends_to_t0 () =
  let pts = rates_of_schedule (Drift.Explicit [ (10., 1.01) ]) ~seed:1 in
  match pts with
  | (0., 1.01) :: _ -> ()
  | _ -> Alcotest.fail "schedule must start at t0"

let test_make_clock_applies_schedule () =
  let rng = Prng.create ~seed:3 in
  let clock =
    Drift.make_clock
      (Drift.Two_phase { switch = 10.; before = 1.; after = 1.02 })
      ~band ~t0:0. ~horizon:100. ~rng
  in
  Alcotest.(check (float 1e-9)) "phase 1 value" 5. (Hc.value clock ~now:5.);
  Alcotest.(check (float 1e-9)) "phase 2 value"
    (10. +. (1.02 *. 10.))
    (Hc.value clock ~now:20.)

let test_band_validation () =
  Alcotest.check_raises "negative rho"
    (Invalid_argument "Drift.band: rho must be >= 0") (fun () ->
      ignore (Drift.band ~rho:(-0.1)))

let test_pattern_parsing () =
  List.iter
    (fun s ->
      match Drift.pattern_of_string s with
      | Ok _ -> ()
      | Error e -> Alcotest.fail e)
    [ "perfect"; "fast"; "slow"; "mid"; "random"; "walk:2:0.01"; "square:10"; "sin:30" ];
  List.iter
    (fun s ->
      match Drift.pattern_of_string s with
      | Ok _ -> Alcotest.failf "accepted %S" s
      | Error _ -> ())
    [
      "bogus"; "walk:0:1"; "walk:nan:1"; "walk:1:-1"; "walk:1:nan";
      "walk:1:inf"; "square:0"; "square:inf"; "sin:-1"; "sin:nan";
    ]

(* Pattern strings over the CLI grammar with numeric fields drawn from 0,
   signed zeros, negatives, nan, infinities and ordinary positives. The
   positives stay coarse: a walk step many orders below the horizon would
   need more change-points than memory holds, which no parser check can
   see without the horizon. *)
let pattern_string_gen =
  let open QCheck.Gen in
  let num =
    oneof
      [
        oneofl [ "0"; "-0"; "-1"; "-2.5"; "nan"; "inf"; "-inf"; "1e400" ];
        map (Printf.sprintf "%.17g") (float_range 0.01 1000.);
        map (Printf.sprintf "%.17g") (float_range (-1000.) 0.);
      ]
  in
  oneof
    [
      oneofl [ "perfect"; "fast"; "slow"; "mid"; "random"; "walk"; "bogus" ];
      map2 (Printf.sprintf "walk:%s:%s") num num;
      map (Printf.sprintf "square:%s") num;
      map (Printf.sprintf "sin:%s") num;
    ]

let prop_parsed_patterns_build =
  QCheck.Test.make ~name:"every parsed drift pattern builds a clock"
    ~count:500
    (QCheck.make ~print:Fun.id pattern_string_gen)
    (fun s ->
      match Drift.pattern_of_string s with
      | Error _ -> true
      | Ok p -> (
          match
            Drift.make_clock p ~band ~t0:0. ~horizon:50.
              ~rng:(Prng.create ~seed:9)
          with
          | _ -> true
          | exception Invalid_argument msg ->
              QCheck.Test.fail_reportf "%S parsed but raised %s" s msg))

let suite =
  [
    Alcotest.test_case "constant" `Quick test_constant;
    Alcotest.test_case "constant clamped" `Quick test_constant_clamped;
    Alcotest.test_case "extremes" `Quick test_extremes;
    Alcotest.test_case "nan midpoint" `Quick test_nan_means_midpoint;
    Alcotest.test_case "two phase" `Quick test_two_phase;
    Alcotest.test_case "square alternates" `Quick test_square_alternates;
    Alcotest.test_case "explicit unsorted" `Quick test_explicit_rejects_unsorted;
    Alcotest.test_case "explicit extends" `Quick test_explicit_extends_to_t0;
    Alcotest.test_case "make_clock" `Quick test_make_clock_applies_schedule;
    Alcotest.test_case "band validation" `Quick test_band_validation;
    Alcotest.test_case "pattern parsing" `Quick test_pattern_parsing;
    QCheck_alcotest.to_alcotest prop_walk_in_band;
    QCheck_alcotest.to_alcotest prop_sinusoid_in_band;
    QCheck_alcotest.to_alcotest prop_parsed_patterns_build;
  ]
