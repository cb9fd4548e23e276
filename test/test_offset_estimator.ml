module Oe = Gcs_core.Offset_estimator
module Reading = Gcs_clock.Reading

let checkf = Alcotest.(check (float 1e-9))

(* The bank reads the local clocks from a reading, as a node passes its
   engine reading. *)
let reading ?(own_value = 0.) h_local =
  { Reading.now = 0.; hw = h_local; logical = own_value }

let update e ~port ~h_local ~remote_value ~elapsed_guess =
  Oe.update e (reading h_local) ~port ~remote_value ~elapsed_guess

(* One port's estimate, read through a scan of the whole bank. *)
let offset ?(max_age = infinity) e ~port ~h_local ~own_value =
  let n = Oe.scan e (reading ~own_value h_local) ~max_age in
  let rec find i =
    if i = n then None
    else if (Oe.offset_ports e).(i) = port then Some (Oe.offsets e).(i)
    else find (i + 1)
  in
  find 0

(* The remote estimate is own - offset at own = 0. *)
let remote_estimate ?max_age e ~port ~h_local =
  Option.map Float.neg (offset ?max_age e ~port ~h_local ~own_value:0.)

let test_empty () =
  let e = Oe.create 1 in
  Alcotest.(check bool) "no estimate" true
    (remote_estimate e ~port:0 ~h_local:0. = None);
  Alcotest.(check bool) "no offset" true
    (offset e ~port:0 ~h_local:0. ~own_value:5. = None);
  Alcotest.(check bool) "no beacon" true (Oe.last_beacon e ~port:0 = None)

let test_anchor_and_extrapolate () =
  let e = Oe.create 1 in
  update e ~port:0 ~h_local:10. ~remote_value:100. ~elapsed_guess:1.;
  (match remote_estimate e ~port:0 ~h_local:10. with
  | Some v -> checkf "at anchor" 101. v
  | None -> Alcotest.fail "expected estimate");
  match remote_estimate e ~port:0 ~h_local:14. with
  | Some v -> checkf "extrapolated at own rate" 105. v
  | None -> Alcotest.fail "expected estimate"

let test_offset_sign () =
  let e = Oe.create 1 in
  update e ~port:0 ~h_local:0. ~remote_value:10. ~elapsed_guess:0.;
  (* own = 13, remote estimated at 10: we are ahead by 3 *)
  match offset e ~port:0 ~h_local:0. ~own_value:13. with
  | Some o -> checkf "positive when ahead" 3. o
  | None -> Alcotest.fail "expected offset"

let test_update_replaces () =
  let e = Oe.create 1 in
  update e ~port:0 ~h_local:0. ~remote_value:10. ~elapsed_guess:0.;
  update e ~port:0 ~h_local:5. ~remote_value:50. ~elapsed_guess:0.5;
  (match Oe.last_beacon e ~port:0 with
  | Some h -> checkf "last beacon time" 5. h
  | None -> Alcotest.fail "expected beacon");
  match remote_estimate e ~port:0 ~h_local:5. with
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
      let e = Oe.create 1 in
      (* Local hardware runs at rate 1 for simplicity. *)
      update e ~port:0 ~h_local:delay ~remote_value:remote_at_send
        ~elapsed_guess:guess;
      let h_query = delay +. elapsed in
      let true_remote = remote_at_send +. (remote_rate *. (delay +. elapsed)) in
      match remote_estimate e ~port:0 ~h_local:h_query with
      | None -> false
      | Some est ->
          let u = d_max -. d_min in
          let rho = 0.01 in
          let bound = (u /. 2.) +. (rho *. (delay +. elapsed)) +. 1e-9 in
          Float.abs (est -. true_remote) <= bound)

let test_expiry () =
  let e = Oe.create 1 in
  update e ~port:0 ~h_local:10. ~remote_value:100. ~elapsed_guess:0.;
  Alcotest.(check bool) "fresh estimate available" true
    (offset ~max_age:4. e ~port:0 ~h_local:12. ~own_value:0. <> None);
  Alcotest.(check bool) "stale estimate expired" true
    (offset ~max_age:4. e ~port:0 ~h_local:15. ~own_value:0. = None);
  Alcotest.(check bool) "no max_age keeps it" true
    (offset e ~port:0 ~h_local:1000. ~own_value:0. <> None)

(* The bank's own contract: the scan lists fresh ports in port order,
   skips the never-heard and the stale, and leaves spare slots alone. *)
let test_scan_prefix () =
  let e = Oe.create ~spare:1 4 in
  update e ~port:3 ~h_local:9. ~remote_value:1. ~elapsed_guess:0.;
  update e ~port:0 ~h_local:2. ~remote_value:1. ~elapsed_guess:0.;
  update e ~port:1 ~h_local:10. ~remote_value:2. ~elapsed_guess:0.;
  (Oe.offsets e).(4) <- 42.;
  let n = Oe.scan e (reading ~own_value:3. 10.) ~max_age:5. in
  Alcotest.(check int) "stale port 0 and silent port 2 skipped" 2 n;
  Alcotest.(check (array int)) "fresh ports in order" [| 1; 3 |]
    (Array.sub (Oe.offset_ports e) 0 n);
  Alcotest.(check (array (float 0.))) "their offsets" [| 1.; 1. |]
    (Array.sub (Oe.offsets e) 0 n);
  checkf "spare slot untouched" 42. (Oe.offsets e).(4)

let test_exact_age_is_fresh () =
  let e = Oe.create 1 in
  update e ~port:0 ~h_local:10. ~remote_value:0. ~elapsed_guess:0.;
  Alcotest.(check bool) "age = max_age kept" true
    (offset ~max_age:2.5 e ~port:0 ~h_local:12.5 ~own_value:0. <> None)

let test_nan_beacon_counts () =
  (* Never-heard is not a float value, so a NaN reading is an estimate. *)
  let e = Oe.create 2 in
  update e ~port:1 ~h_local:1. ~remote_value:nan ~elapsed_guess:0.;
  match offset e ~port:1 ~h_local:1. ~own_value:0. with
  | Some o -> Alcotest.(check bool) "NaN offset" true (Float.is_nan o)
  | None -> Alcotest.fail "a NaN beacon must count as heard"

let suite =
  [
    Alcotest.test_case "empty" `Quick test_empty;
    Alcotest.test_case "anchor and extrapolate" `Quick test_anchor_and_extrapolate;
    Alcotest.test_case "offset sign" `Quick test_offset_sign;
    Alcotest.test_case "update replaces" `Quick test_update_replaces;
    Alcotest.test_case "estimator expiry" `Quick test_expiry;
    QCheck_alcotest.to_alcotest prop_estimate_error_bounded;
    Alcotest.test_case "scan writes a fresh prefix" `Quick test_scan_prefix;
    Alcotest.test_case "age of exactly max_age is fresh" `Quick
      test_exact_age_is_fresh;
    Alcotest.test_case "NaN beacon counts as heard" `Quick
      test_nan_beacon_counts;
  ]
