module Prng = Gcs_util.Prng

type pattern =
  | Constant of float
  | Extreme_low
  | Extreme_high
  | Two_phase of { switch : float; before : float; after : float }
  | Square of { period : float; low : float; high : float; phase : float }
  | Sinusoid of { period : float; phase : float; step : float }
  | Random_walk of { step : float; sigma : float }
  | Random_constant
  | Explicit of (float * float) list

type band = { rate_min : float; rate_max : float }

let band ~rho =
  if rho < 0. then invalid_arg "Drift.band: rho must be >= 0";
  { rate_min = 1.; rate_max = 1. +. rho }

let clamp band r = Float.min band.rate_max (Float.max band.rate_min r)

let midpoint band = 0.5 *. (band.rate_min +. band.rate_max)

let positive_finite x = x > 0. && x < infinity

(* The one parameter check behind both [schedule] and [pattern_of_string]. *)
let check = function
  | Square { period; _ } when not (positive_finite period) ->
      Error "square period must be > 0 and finite"
  | Sinusoid { period; step; _ }
    when not (positive_finite period && positive_finite step) ->
      Error "sinusoid period and step must be > 0 and finite"
  | Random_walk { step; _ } when not (positive_finite step) ->
      Error "walk step must be > 0 and finite"
  | Random_walk { sigma; _ } when not (sigma >= 0. && sigma < infinity) ->
      Error "walk sigma must be >= 0 and finite"
  | _ -> Ok ()

let schedule pattern ~band:b ~t0 ~horizon ~rng =
  if horizon < 0. then invalid_arg "Drift.schedule: negative horizon";
  (match check pattern with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Drift: " ^ msg));
  let points =
    match pattern with
    | Constant r ->
        let r = if Float.is_nan r then midpoint b else r in
        [ (t0, r) ]
    | Extreme_low -> [ (t0, b.rate_min) ]
    | Extreme_high -> [ (t0, b.rate_max) ]
    | Two_phase { switch; before; after } ->
        if switch <= t0 then [ (t0, after) ]
        else [ (t0, before); (switch, after) ]
    | Square { period; low; high; phase } ->
        (* [phase] counts half-periods of offset for the starting parity. *)
        let half = period /. 2. in
        let count = int_of_float (Float.ceil (horizon /. half)) + 1 in
        let parity0 = int_of_float phase land 1 in
        List.init count (fun i ->
            let t = t0 +. (float_of_int i *. half) in
            let r = if (i + parity0) mod 2 = 0 then high else low in
            (t, r))
    | Sinusoid { period; phase; step } ->
        let amp = (b.rate_max -. b.rate_min) /. 2. in
        let mid = midpoint b in
        let count = int_of_float (Float.ceil (horizon /. step)) + 1 in
        List.init count (fun i ->
            let t = t0 +. (float_of_int i *. step) in
            (t, mid +. (amp *. sin ((2. *. Float.pi *. (t +. phase)) /. period))))
    | Random_walk { step; sigma } ->
        let count = int_of_float (Float.ceil (horizon /. step)) + 1 in
        let r = ref (Prng.uniform rng ~lo:b.rate_min ~hi:b.rate_max) in
        List.init count (fun i ->
            let t = t0 +. (float_of_int i *. step) in
            let next = !r +. Prng.gaussian rng ~mu:0. ~sigma in
            (* Reflect off the band edges to keep the walk inside. *)
            let reflected =
              if next > b.rate_max then (2. *. b.rate_max) -. next
              else if next < b.rate_min then (2. *. b.rate_min) -. next
              else next
            in
            r := clamp b reflected;
            (t, !r))
    | Random_constant -> [ (t0, Prng.uniform rng ~lo:b.rate_min ~hi:b.rate_max) ]
    | Explicit points ->
        if points = [] then [ (t0, midpoint b) ]
        else begin
          let rec check_sorted = function
            | (t1, _) :: ((t2, _) :: _ as rest) ->
                if t2 < t1 then invalid_arg "Drift: explicit times decrease";
                check_sorted rest
            | _ -> ()
          in
          check_sorted points;
          match points with
          | (t, r) :: _ when t > t0 -> (t0, r) :: points
          | _ -> points
        end
  in
  List.map (fun (t, r) -> (Float.max t t0, clamp b r)) points

let make_clock pattern ~band:b ~t0 ~horizon ~rng =
  match schedule pattern ~band:b ~t0 ~horizon ~rng with
  | [] -> assert false
  | (start, rate0) :: rest ->
      let clock = Hardware_clock.create ~t0:start ~rate:rate0 () in
      List.iter
        (fun (t, rate) -> Hardware_clock.set_rate clock ~now:t ~rate)
        rest;
      clock

let pattern_of_string s =
  let fail () = Error (Printf.sprintf "unrecognized drift pattern %S" s) in
  let checked p =
    match check p with
    | Ok () -> Ok p
    | Error msg -> Error (Printf.sprintf "bad drift pattern %S: %s" s msg)
  in
  match String.split_on_char ':' s with
  | [ "perfect" ] -> Ok (Constant 1.)
  | [ "fast" ] -> Ok Extreme_high
  | [ "slow" ] -> Ok Extreme_low
  | [ "mid" ] -> Ok (Constant nan)
  | [ "random" ] -> Ok Random_constant
  | [ "walk"; step; sigma ] -> (
      match (float_of_string_opt step, float_of_string_opt sigma) with
      | Some step, Some sigma -> checked (Random_walk { step; sigma })
      | _ -> fail ())
  | [ "square"; period ] -> (
      match float_of_string_opt period with
      | Some period ->
          checked (Square { period; low = 1.; high = infinity; phase = 0. })
      | None -> fail ())
  | [ "sin"; period ] -> (
      match float_of_string_opt period with
      | Some period ->
          checked (Sinusoid { period; phase = 0.; step = period /. 16. })
      | None -> fail ())
  | _ -> fail ()
