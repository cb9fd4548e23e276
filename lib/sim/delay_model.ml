module Prng = Gcs_util.Prng

type bounds = { d_min : float; d_max : float }

let bounds ~d_min ~d_max =
  if not (Float.is_finite d_min && Float.is_finite d_max) then
    invalid_arg "Delay_model.bounds: d_min and d_max must be finite";
  if d_min < 0. || d_max < d_min then
    invalid_arg "Delay_model.bounds: need 0 <= d_min <= d_max";
  { d_min; d_max }

let uncertainty b = b.d_max -. b.d_min

type chooser = edge:int -> src:int -> dst:int -> now:float -> float

type slot = { mutable at : float; mutable delay : float }

let slot () = { at = 0.; delay = 0. }

type t = {
  edge_bounds : int -> bounds;
  draw_fn : edge:int -> src:int -> dst:int -> rng:Prng.t -> slot -> unit;
      (* writes the unclamped delay of a message sent at [at] *)
  loss : float;
}

let edge_bounds t e = t.edge_bounds e

let drop_probability t = t.loss
let with_loss p t = { t with loss = Float.min 1. (Float.max 0. p) }

let draw t ~edge ~src ~dst ~rng s =
  t.draw_fn ~edge ~src ~dst ~rng s;
  let b = t.edge_bounds edge in
  s.delay <- Float.min b.d_max (Float.max b.d_min s.delay)

let uniform b =
  (* Bound once, the closure keeps both ends boxed, so a draw passes them
     to [Prng.uniform] without boxing them again. *)
  let lo = b.d_min and hi = b.d_max in
  {
    edge_bounds = (fun _ -> b);
    draw_fn =
      (fun ~edge:_ ~src:_ ~dst:_ ~rng s -> s.delay <- Prng.uniform rng ~lo ~hi);
    loss = 0.;
  }

let per_edge f =
  {
    edge_bounds = f;
    draw_fn =
      (fun ~edge ~src:_ ~dst:_ ~rng s ->
        let b = f edge in
        s.delay <- Prng.uniform rng ~lo:b.d_min ~hi:b.d_max);
    loss = 0.;
  }

let controlled b ~default chooser =
  {
    edge_bounds = (fun _ -> b);
    draw_fn =
      (fun ~edge ~src ~dst ~rng s ->
        match !chooser with
        | Some choose -> s.delay <- choose ~edge ~src ~dst ~now:s.at
        | None -> default.draw_fn ~edge ~src ~dst ~rng s);
    (* Keep the base model's loss law so a controlled adversary can overlay
       a lossy model rather than silently disabling its drops. *)
    loss = default.loss;
  }
