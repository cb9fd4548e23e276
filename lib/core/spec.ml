module Delay_model = Gcs_sim.Delay_model

type t = {
  rho : float;
  mu : float;
  delay : Delay_model.bounds;
  beacon_period : float;
  kappa : float;
  staleness_limit : float;
}

let uncertainty t = Delay_model.uncertainty t.delay
let d_min t = t.delay.Delay_model.d_min
let d_max t = t.delay.Delay_model.d_max
let vartheta t = 1. +. t.rho
let sigma t = if t.rho = 0. then infinity else t.mu /. t.rho

let estimate_error_bound_of ~u ~rho ~beacon_period ~d_max =
  (u /. 2.) +. (rho *. ((2. *. beacon_period) +. d_max))

let default_kappa ~u ~rho ~beacon_period =
  (* Error per estimate, doubled for the two estimates a condition compares,
     and doubled again for slack between the fast and slow thresholds. *)
  4. *. estimate_error_bound_of ~u ~rho ~beacon_period ~d_max:(2. *. u)

let estimate_error_bound t =
  estimate_error_bound_of ~u:(uncertainty t) ~rho:t.rho
    ~beacon_period:t.beacon_period ~d_max:t.delay.Delay_model.d_max

let validate t =
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let fields =
    [
      ("rho", t.rho);
      ("mu", t.mu);
      ("d_min", t.delay.Delay_model.d_min);
      ("d_max", t.delay.Delay_model.d_max);
      ("beacon_period", t.beacon_period);
      ("kappa", t.kappa);
      ("staleness_limit", t.staleness_limit);
    ]
  in
  (* NaN fails every range test below, so finiteness comes first. *)
  match List.find_opt (fun (_, v) -> not (Float.is_finite v)) fields with
  | Some (name, v) -> err "%s must be finite (got %g)" name v
  | None ->
      if t.rho < 0. then err "rho must be >= 0 (got %g)" t.rho
      else if t.mu <= 0. then err "mu must be > 0 (got %g)" t.mu
      else if t.mu <= t.rho then
        err
          "mu (%g) must exceed rho (%g) for the gradient algorithm to catch up"
          t.mu t.rho
      else if t.beacon_period <= 0. then
        err "beacon_period must be > 0 (got %g)" t.beacon_period
      else if t.kappa <= 0. then err "kappa must be > 0 (got %g)" t.kappa
      else if t.staleness_limit <= 0. then
        err "staleness_limit must be > 0 (got %g)" t.staleness_limit
      else Ok ()

let make ?(rho = 0.01) ?(mu = 0.1) ?(d_min = 0.5) ?(d_max = 1.5)
    ?(beacon_period = 1.) ?kappa ?staleness_limit () =
  let delay = Delay_model.bounds ~d_min ~d_max in
  let u = Delay_model.uncertainty delay in
  let kappa =
    match kappa with
    | Some k -> k
    | None ->
        let k = default_kappa ~u ~rho ~beacon_period in
        (* A zero-uncertainty, zero-drift instance still needs a positive
           quantum for the trigger arithmetic. *)
        if k > 0. then k else 1e-6
  in
  let staleness_limit =
    match staleness_limit with
    | Some s -> s
    | None -> 4. *. beacon_period
  in
  let t = { rho; mu; delay; beacon_period; kappa; staleness_limit } in
  match validate t with Ok () -> t | Error msg -> invalid_arg ("Spec.make: " ^ msg)
