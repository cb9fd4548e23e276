module Oe = Gcs_core.Offset_estimator

let checkf = Alcotest.(check (float 1e-9))

let test_empty () =
  let e = Oe.create () in
  Alcotest.(check bool) "no estimate" true (Oe.remote_estimate e ~h_local:0. = None);
  Alcotest.(check bool) "no offset" true
    (Oe.offset e ~h_local:0. ~own_value:5. = None);
  Alcotest.(check bool) "no beacon" true (Oe.last_beacon e = None)

let test_anchor_and_extrapolate () =
  let e = Oe.create () in
  Oe.update e ~h_local:10. ~remote_value:100. ~elapsed_guess:1.;
  (match Oe.remote_estimate e ~h_local:10. with
  | Some v -> checkf "at anchor" 101. v
  | None -> Alcotest.fail "expected estimate");
  match Oe.remote_estimate e ~h_local:14. with
  | Some v -> checkf "extrapolated at own rate" 105. v
  | None -> Alcotest.fail "expected estimate"

let test_offset_sign () =
  let e = Oe.create () in
  Oe.update e ~h_local:0. ~remote_value:10. ~elapsed_guess:0.;
  (* own = 13, remote estimated at 10: we are ahead by 3 *)
  match Oe.offset e ~h_local:0. ~own_value:13. with
  | Some o -> checkf "positive when ahead" 3. o
  | None -> Alcotest.fail "expected offset"

let test_update_replaces () =
  let e = Oe.create () in
  Oe.update e ~h_local:0. ~remote_value:10. ~elapsed_guess:0.;
  Oe.update e ~h_local:5. ~remote_value:50. ~elapsed_guess:0.5;
  (match Oe.last_beacon e with
  | Some h -> checkf "last beacon time" 5. h
  | None -> Alcotest.fail "expected beacon");
  match Oe.remote_estimate e ~h_local:5. with
  | Some v -> checkf "fresh anchor wins" 50.5 v
  | None -> Alcotest.fail "expected estimate"

let prop_estimate_error_bounded =
  (* Simulate a remote clock with drift and a delay inside [d_min, d_max]:
     the estimate error must stay within u/2 + drift contributions, the
     bound the spec promises. *)
  QCheck.Test.make ~name:"estimate error within model bound" ~count:300
    QCheck.(
      quad (float_range 0. 1.) (* delay position within the band *)
        (float_range 0.9999 1.0101) (* remote rate in [1, 1.01] (approx) *)
        (float_range 0. 2.) (* elapsed local time since beacon *)
        (float_range 0. 100.) (* remote clock value at send *))
    (fun (pos, remote_rate, elapsed, remote_at_send) ->
      let remote_rate = Float.max 1. (Float.min 1.01 remote_rate) in
      let d_min = 0.5 and d_max = 1.5 in
      let delay = d_min +. (pos *. (d_max -. d_min)) in
      let guess = 0.5 *. (d_min +. d_max) in
      let e = Oe.create () in
      (* Local hardware runs at rate 1 for simplicity. *)
      Oe.update e ~h_local:delay ~remote_value:remote_at_send
        ~elapsed_guess:guess;
      let h_query = delay +. elapsed in
      let true_remote = remote_at_send +. (remote_rate *. (delay +. elapsed)) in
      match Oe.remote_estimate e ~h_local:h_query with
      | None -> false
      | Some est ->
          let u = d_max -. d_min in
          let rho = 0.01 in
          let bound = (u /. 2.) +. (rho *. (delay +. elapsed)) +. 1e-9 in
          Float.abs (est -. true_remote) <= bound)

let test_expiry () =
  let e = Oe.create () in
  Oe.update e ~h_local:10. ~remote_value:100. ~elapsed_guess:0.;
  Alcotest.(check bool) "fresh estimate available" true
    (Oe.offset ~max_age:4. e ~h_local:12. ~own_value:0. <> None);
  Alcotest.(check bool) "stale estimate expired" true
    (Oe.offset ~max_age:4. e ~h_local:15. ~own_value:0. = None);
  Alcotest.(check bool) "no max_age keeps it" true
    (Oe.offset e ~h_local:1000. ~own_value:0. <> None)

let suite =
  [
    Alcotest.test_case "empty" `Quick test_empty;
    Alcotest.test_case "anchor and extrapolate" `Quick test_anchor_and_extrapolate;
    Alcotest.test_case "offset sign" `Quick test_offset_sign;
    Alcotest.test_case "update replaces" `Quick test_update_replaces;
    Alcotest.test_case "estimator expiry" `Quick test_expiry;
    QCheck_alcotest.to_alcotest prop_estimate_error_bounded;
  ]
