module Dm = Gcs_sim.Delay_model
module Prng = Gcs_util.Prng

let b = Dm.bounds ~d_min:0.5 ~d_max:1.5
let rng () = Prng.create ~seed:4

let draw model =
  Dm.draw model ~edge:0 ~src:0 ~dst:1 ~now:0. ~rng:(rng ())

let test_bounds_validation () =
  Alcotest.check_raises "negative d_min"
    (Invalid_argument "Delay_model.bounds: need 0 <= d_min <= d_max")
    (fun () -> ignore (Dm.bounds ~d_min:(-1.) ~d_max:1.));
  Alcotest.check_raises "inverted"
    (Invalid_argument "Delay_model.bounds: need 0 <= d_min <= d_max")
    (fun () -> ignore (Dm.bounds ~d_min:2. ~d_max:1.))

let test_uncertainty () =
  Alcotest.(check (float 1e-12)) "u" 1. (Dm.uncertainty b)

(* A fixed delay is a zero-width band; the engine tests build their
   deterministic networks this way. *)
let test_fixed () =
  Alcotest.(check (float 0.)) "zero-width band" 1.5
    (draw (Dm.uniform (Dm.bounds ~d_min:1.5 ~d_max:1.5)))

let prop_uniform_in_bounds =
  QCheck.Test.make ~name:"uniform draws stay in bounds" ~count:300
    QCheck.small_nat
    (fun seed ->
      let g = Prng.create ~seed in
      let d = Dm.draw (Dm.uniform b) ~edge:0 ~src:0 ~dst:1 ~now:0. ~rng:g in
      d >= 0.5 && d <= 1.5)

let test_per_edge () =
  let bounds_of e =
    if e = 0 then Dm.bounds ~d_min:1. ~d_max:1. else Dm.bounds ~d_min:3. ~d_max:3.
  in
  let m = Dm.per_edge bounds_of in
  Alcotest.(check (float 1e-12)) "edge 0" 1.
    (Dm.draw m ~edge:0 ~src:0 ~dst:1 ~now:0. ~rng:(rng ()));
  Alcotest.(check (float 1e-12)) "edge 1" 3.
    (Dm.draw m ~edge:1 ~src:1 ~dst:2 ~now:0. ~rng:(rng ()));
  Alcotest.(check (float 1e-12)) "edge_bounds" 3. (Dm.edge_bounds m 1).Dm.d_max

let test_controlled_defaults_and_overrides () =
  let chooser = ref None in
  let m =
    Dm.controlled b ~default:(Dm.uniform (Dm.bounds ~d_min:1. ~d_max:1.)) chooser
  in
  Alcotest.(check (float 1e-12)) "default path" 1.0 (draw m);
  chooser := Some (fun ~edge:_ ~src:_ ~dst:_ ~now:_ -> 1.4);
  Alcotest.(check (float 1e-12)) "chooser path" 1.4 (draw m);
  chooser := None;
  Alcotest.(check (float 1e-12)) "back to default" 1.0 (draw m)

let test_cleared_chooser_matches_default_stream () =
  (* Lifecycle regression: once the chooser cell is cleared, a controlled
     model must be bit-identical to its default — including the PRNG
     stream, since the chooser path consumes no randomness. *)
  let chooser = ref (Some (fun ~edge:_ ~src:_ ~dst:_ ~now:_ -> 1.3)) in
  let m = Dm.controlled b ~default:(Dm.uniform b) chooser in
  Alcotest.(check (float 1e-12)) "adversary phase" 1.3 (draw m);
  chooser := None;
  let g_controlled = Prng.create ~seed:11 in
  let g_default = Prng.create ~seed:11 in
  let plain = Dm.uniform b in
  for i = 0 to 19 do
    let dc =
      Dm.draw m ~edge:i ~src:0 ~dst:1 ~now:(float_of_int i) ~rng:g_controlled
    in
    let dd =
      Dm.draw plain ~edge:i ~src:0 ~dst:1 ~now:(float_of_int i) ~rng:g_default
    in
    Alcotest.(check (float 0.)) "identical draw" dd dc
  done

let test_loss_law_clamped () =
  let m =
    Dm.with_loss 7. (Dm.uniform b)
  in
  Alcotest.(check (float 1e-12)) "clamped to 1" 1.
    (Dm.drop_probability m);
  let m' =
    Dm.with_loss (-3.) (Dm.uniform b)
  in
  Alcotest.(check (float 1e-12)) "clamped to 0" 0.
    (Dm.drop_probability m')

let test_base_models_never_drop () =
  List.iter
    (fun m ->
      Alcotest.(check (float 1e-12)) "no drop" 0.
        (Dm.drop_probability m))
    [ Dm.uniform b; Dm.per_edge (fun _ -> b) ]

let test_controlled_keeps_default_loss () =
  (* A controlled model delegates delays but must keep the default's loss
     law, so an adversary composes with a lossy base model instead of
     silently disabling it. *)
  let lossy =
    Dm.with_loss 0.7 (Dm.uniform b)
  in
  let chooser = ref (Some (fun ~edge:_ ~src:_ ~dst:_ ~now:_ -> 1.2)) in
  let m = Dm.controlled b ~default:lossy chooser in
  Alcotest.(check (float 1e-12)) "loss law survives" 0.7
    (Dm.drop_probability m);
  Alcotest.(check (float 1e-12)) "chooser still wins on delay" 1.2 (draw m)

let test_controlled_clamps_rogue_chooser () =
  let chooser = ref (Some (fun ~edge:_ ~src:_ ~dst:_ ~now:_ -> 99.)) in
  let m = Dm.controlled b ~default:(Dm.uniform b) chooser in
  Alcotest.(check (float 1e-12)) "clamped to d_max" 1.5 (draw m);
  chooser := Some (fun ~edge:_ ~src:_ ~dst:_ ~now:_ -> -5.);
  Alcotest.(check (float 1e-12)) "clamped to d_min" 0.5 (draw m)

let suite =
  [
    Alcotest.test_case "bounds validation" `Quick test_bounds_validation;
    Alcotest.test_case "uncertainty" `Quick test_uncertainty;
    Alcotest.test_case "fixed" `Quick test_fixed;
    Alcotest.test_case "per edge" `Quick test_per_edge;
    Alcotest.test_case "controlled" `Quick test_controlled_defaults_and_overrides;
    Alcotest.test_case "controlled clamps" `Quick test_controlled_clamps_rogue_chooser;
    Alcotest.test_case "cleared chooser = default stream" `Quick
      test_cleared_chooser_matches_default_stream;
    Alcotest.test_case "controlled keeps default loss" `Quick
      test_controlled_keeps_default_loss;
    Alcotest.test_case "loss law clamped" `Quick test_loss_law_clamped;
    Alcotest.test_case "base models never drop" `Quick test_base_models_never_drop;
    QCheck_alcotest.to_alcotest prop_uniform_in_bounds;
  ]
