(* The estimator bank's scan plus each algorithm's trigger, checked bit for
   bit against the per-port code it replaced. The references below are
   that code: one record per port with an optional anchor, an offset list
   built port by port, and the triggers and filters that consumed it. *)

module Oe = Gcs_core.Offset_estimator
module Gs = Gcs_core.Gradient_sync
module Ft = Gcs_core.Ft_gradient
module Gh = Gcs_core.Gradient_hetero
module Dg = Gcs_core.Dynamic_gradient
module Ms = Gcs_core.Max_slew
module Reading = Gcs_clock.Reading

module Reference = struct
  type anchor = { h_anchor : float; remote_at_anchor : float }
  type est = { mutable anchor : anchor option }

  let update t ~h_local ~remote_value ~elapsed_guess =
    t.anchor <-
      Some
        { h_anchor = h_local; remote_at_anchor = remote_value +. elapsed_guess }

  let remote_estimate ~max_age t ~h_local =
    match t.anchor with
    | None -> None
    | Some { h_anchor; remote_at_anchor } ->
        if h_local -. h_anchor > max_age then None
        else Some (remote_at_anchor +. (h_local -. h_anchor))

  let offset ~max_age t ~h_local ~own_value =
    Option.map (fun r -> own_value -. r) (remote_estimate ~max_age t ~h_local)

  let offsets_now ~max_age ests ~h_local ~own_value =
    let known = ref [] in
    Array.iter
      (fun est ->
        match offset ~max_age est ~h_local ~own_value with
        | Some o -> known := o :: !known
        | None -> ())
      ests;
    Array.of_list !known

  let exists_level ~limit pred =
    let rec go s =
      if float_of_int s > limit then false else pred s || go (s + 1)
    in
    go 0

  let extremes offsets =
    Array.fold_left
      (fun (ahead, behind) o -> (Float.max ahead (-.o), Float.max behind o))
      (neg_infinity, neg_infinity) offsets

  let fast_trigger ~kappa ~offsets =
    if Array.length offsets = 0 then false
    else begin
      let ahead, behind = extremes offsets in
      ahead >= kappa
      && exists_level ~limit:(ahead /. kappa) (fun s ->
             let level = float_of_int ((2 * s) + 1) *. kappa in
             ahead >= level && behind <= level)
    end

  let slow_trigger ~kappa ~offsets =
    if Array.length offsets = 0 then true
    else begin
      let ahead, behind = extremes offsets in
      exists_level ~limit:((behind /. kappa) +. 1.) (fun s ->
          let level = float_of_int (2 * s) *. kappa in
          behind >= level && ahead <= level)
    end

  let filter_offsets ~f ~kappa offsets =
    let w = float_of_int ((2 * f) + 1) *. kappa in
    let kept =
      List.filter (fun o -> Float.abs o <= w) (Array.to_list offsets)
    in
    let kept = Array.of_list kept in
    let n = Array.length kept in
    let t = max 0 (min f ((n - (2 * f) - 1) / 2)) in
    if t = 0 then kept
    else begin
      Array.sort Float.compare kept;
      Array.sub kept t (n - (2 * t))
    end

  let fast_trigger_hetero ~kappas ~offsets =
    let n = Array.length offsets in
    if n = 0 then false
    else begin
      let max_level = ref 0 in
      for i = 0 to n - 1 do
        let ahead = -.offsets.(i) in
        if ahead >= kappas.(i) then begin
          let s = int_of_float ((ahead /. kappas.(i)) -. 1.) / 2 in
          if s > !max_level then max_level := s
        end
      done;
      let exists_ahead s =
        let ok = ref false in
        for i = 0 to n - 1 do
          if -.offsets.(i) >= float_of_int ((2 * s) + 1) *. kappas.(i) then
            ok := true
        done;
        !ok
      in
      let none_behind s =
        let ok = ref true in
        for i = 0 to n - 1 do
          if offsets.(i) > float_of_int ((2 * s) + 1) *. kappas.(i) then
            ok := false
        done;
        !ok
      in
      let rec search s =
        if s > !max_level then false
        else (exists_ahead s && none_behind s) || search (s + 1)
      in
      Array.exists2 (fun k o -> -.o >= k) kappas offsets && search 0
    end

  let hetero_known ~max_age ests port_kappa ~h_local ~own_value =
    let known_offsets = ref [] and known_kappas = ref [] in
    Array.iteri
      (fun p est ->
        match offset ~max_age est ~h_local ~own_value with
        | Some o ->
            known_offsets := o :: !known_offsets;
            known_kappas := port_kappa.(p) :: !known_kappas
        | None -> ())
      ests;
    (Array.of_list !known_offsets, Array.of_list !known_kappas)

  let max_slew_behind ~max_age ~threshold ests ~h_local ~own_value =
    let behind = ref false in
    Array.iter
      (fun est ->
        match offset ~max_age est ~h_local ~own_value with
        | Some o when -.o > threshold -> behind := true
        | Some _ | None -> ())
      ests;
    !behind

  let discount ~allow o =
    if o > allow then o -. allow else if o < -.allow then o +. allow else 0.

  let dynamic_offsets_now ~max_age ~allow0 ~tighten ~live_since ests ~h_local
      ~own_value =
    let known = ref [] in
    Array.iteri
      (fun port est ->
        match offset ~max_age est ~h_local ~own_value with
        | Some o ->
            let age = h_local -. live_since.(port) in
            let allow = Float.max 0. (allow0 -. (tighten *. age)) in
            known := discount ~allow o :: !known
        | None -> ())
      ests;
    Array.of_list !known
end

type port = Never | Heard of { age : float; remote : float; elapsed : float }

type case = {
  kappa : float;
  max_age : float;
  h_local : float;
  own : float;
  ports : port array;
  f : int;
  port_kappa : float array;
  threshold : float;
  allow0 : float;
  tighten : float;
  live_since : float array;
}

(* Eighths keep every time exact: h_local - (h_local - age) = age, so a
   port can sit exactly at the staleness limit. *)
let eighths lo hi =
  QCheck.Gen.map (fun k -> float_of_int k /. 8.) (QCheck.Gen.int_range lo hi)

let gen_value kappa =
  let open QCheck.Gen in
  frequency
    [
      (3, oneofl [ 0.; -0.; kappa; -.kappa; 3. *. kappa; -5. *. kappa ]);
      (1, return nan);
      (5, map (fun k -> float_of_int k *. kappa /. 4.) (int_range (-40) 40));
      (1, float_range (-1e6 *. kappa) (1e6 *. kappa));
    ]

let gen_port ~kappa ~max_age =
  let open QCheck.Gen in
  let heard age =
    map2
      (fun remote elapsed -> Heard { age; remote; elapsed })
      (gen_value kappa)
      (oneofl [ 0.; 0.25; 1.5 ])
  in
  let limit = int_of_float (max_age *. 8.) in
  frequency
    [
      (1, return Never);
      (4, eighths 0 (limit - 1) >>= heard);
      (1, heard max_age);
      (1, eighths (limit + 1) (limit + 40) >>= heard);
    ]

let gen_case =
  let open QCheck.Gen in
  let* kappa =
    oneof [ oneofl [ 0.25; 0.5; 1.; 1.5; 3. ]; float_range 0.1 3. ]
  in
  let* max_age = eighths 1 40 in
  let* h_local = eighths 400 800 in
  let* own = oneof [ oneofl [ 0.; -0. ]; eighths (-40) 40 ] in
  let* degree = int_range 0 8 in
  let* ports = array_repeat degree (gen_port ~kappa ~max_age) in
  let* f = int_range 0 2 in
  let* port_kappa = array_repeat degree (oneofl [ 0.25; 0.5; 1.; 2. ]) in
  let* threshold = oneofl [ 0.; 0.5; kappa ] in
  let* allow0 = eighths 0 80 in
  let* tighten = oneofl [ 0.0125; 0.05; 0.25 ] in
  let+ live_since =
    array_repeat degree
      (oneof
         [ return neg_infinity; map (fun a -> h_local -. a) (eighths 0 320) ])
  in
  {
    kappa;
    max_age;
    h_local;
    own;
    ports;
    f;
    port_kappa;
    threshold;
    allow0;
    tighten;
    live_since;
  }

let print_case c =
  let port = function
    | Never -> "never"
    | Heard { age; remote; elapsed } ->
        Printf.sprintf "age=%h remote=%h elapsed=%h" age remote elapsed
  in
  Printf.sprintf "kappa=%h max_age=%h h=%h own=%h f=%d ports=[%s]" c.kappa
    c.max_age c.h_local c.own c.f
    (String.concat "; " (Array.to_list (Array.map port c.ports)))

(* Both representations, fed the same beacons. *)
let build c =
  let degree = Array.length c.ports in
  let refs = Array.init degree (fun _ -> { Reference.anchor = None }) in
  let bank = Oe.create degree in
  Array.iteri
    (fun port p ->
      match p with
      | Never -> ()
      | Heard { age; remote; elapsed } ->
          let h_local = c.h_local -. age in
          Reference.update refs.(port) ~h_local ~remote_value:remote
            ~elapsed_guess:elapsed;
          Oe.update bank
            { Reading.now = 0.; hw = h_local; logical = 0. }
            ~port ~remote_value:remote ~elapsed_guess:elapsed)
    c.ports;
  (refs, bank)

(* The node's reading at the scan: its hardware time and own value. *)
let reading c = { Reading.now = 0.; hw = c.h_local; logical = c.own }

let scan c bank = Oe.scan bank (reading c) ~max_age:c.max_age

let bits a = Array.map Int64.bits_of_float a

(* The reference lists ports last to first; the scan, first to last. *)
let same_bits ~reference prefix =
  let r = Array.copy reference in
  let len = Array.length r in
  Array.iteri (fun i x -> r.(len - 1 - i) <- x) reference;
  bits r = bits prefix

let same_multiset a b =
  let sort x =
    let x = Array.copy x in
    Array.sort Float.compare x;
    x
  in
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> Float.compare x y = 0) (sort a) (sort b)

let fail fmt = Printf.ksprintf QCheck.Test.fail_report fmt

let check_gradient c refs bank =
  let reference =
    Reference.offsets_now ~max_age:c.max_age refs ~h_local:c.h_local
      ~own_value:c.own
  in
  let n = scan c bank in
  let offsets = Oe.offsets bank in
  if not (same_bits ~reference (Array.sub offsets 0 n)) then
    fail "scan offsets differ"
  else if
    Reference.fast_trigger ~kappa:c.kappa ~offsets:reference
    <> Gs.fast_trigger_n ~kappa:c.kappa offsets n
  then fail "fast trigger differs"
  else if
    (not (Array.exists Float.is_nan reference))
    && Reference.slow_trigger ~kappa:c.kappa ~offsets:reference
       <> Gs.slow_trigger_n ~kappa:c.kappa offsets n
  then fail "slow trigger differs"
  else true

let check_ft c refs bank =
  let reference =
    Reference.filter_offsets ~f:c.f ~kappa:c.kappa
      (Reference.offsets_now ~max_age:c.max_age refs ~h_local:c.h_local
         ~own_value:c.own)
  in
  let offsets = Oe.offsets bank in
  let n = Ft.filter_prefix ~f:c.f ~kappa:c.kappa offsets (scan c bank) in
  if not (same_multiset reference (Array.sub offsets 0 n)) then
    fail "ft filter keeps a different multiset"
  else if
    Reference.fast_trigger ~kappa:c.kappa ~offsets:reference
    <> Gs.fast_trigger_n ~kappa:c.kappa offsets n
  then fail "ft trigger differs"
  else true

let check_hetero c refs bank =
  let offsets_ref, kappas =
    Reference.hetero_known ~max_age:c.max_age refs c.port_kappa
      ~h_local:c.h_local ~own_value:c.own
  in
  let n = scan c bank in
  Reference.fast_trigger_hetero ~kappas ~offsets:offsets_ref
  = Gh.fast_trigger_ports ~port_kappa:c.port_kappa
      ~ports:(Oe.offset_ports bank) (Oe.offsets bank) n
  || fail "hetero trigger differs"

let check_max_slew c refs bank =
  let n = scan c bank in
  Reference.max_slew_behind ~max_age:c.max_age ~threshold:c.threshold refs
    ~h_local:c.h_local ~own_value:c.own
  = Ms.ahead_of_us ~threshold:c.threshold (Oe.offsets bank) n
  || fail "max-slew condition differs"

let check_dynamic c refs bank =
  let reference =
    Reference.dynamic_offsets_now ~max_age:c.max_age ~allow0:c.allow0
      ~tighten:c.tighten ~live_since:c.live_since refs ~h_local:c.h_local
      ~own_value:c.own
  in
  let n = scan c bank in
  let offsets = Oe.offsets bank in
  Dg.discount_prefix ~allow0:c.allow0 ~tighten:c.tighten (reading c)
    ~live_since:c.live_since offsets (Oe.offset_ports bank) n;
  if not (same_bits ~reference (Array.sub offsets 0 n)) then
    fail "discounted offsets differ"
  else
    Reference.fast_trigger ~kappa:c.kappa ~offsets:reference
    = Gs.fast_trigger_n ~kappa:c.kappa offsets n
    || fail "dynamic trigger differs"

(* One bank serves every check: each rescans it, so no check may depend on
   what an earlier one left in the scratch. *)
let prop_scan_matches_reference =
  QCheck.Test.make ~name:"bank scan + triggers = per-port reference code"
    ~count:1000
    (QCheck.make ~print:print_case gen_case)
    (fun c ->
      let refs, bank = build c in
      check_gradient c refs bank && check_ft c refs bank
      && check_hetero c refs bank && check_max_slew c refs bank
      && check_dynamic c refs bank)

let suite = [ QCheck_alcotest.to_alcotest prop_scan_matches_reference ]
