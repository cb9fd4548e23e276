module Prng = Gcs_util.Prng

type bounds = { d_min : float; d_max : float }

let bounds ~d_min ~d_max =
  if d_min < 0. || d_max < d_min then
    invalid_arg "Delay_model.bounds: need 0 <= d_min <= d_max";
  { d_min; d_max }

let uncertainty b = b.d_max -. b.d_min

type chooser = edge:int -> src:int -> dst:int -> now:float -> float

type t = {
  edge_bounds : int -> bounds;
  draw_fn :
    edge:int -> src:int -> dst:int -> now:float -> rng:Prng.t -> float;
  loss : float;
}

let edge_bounds t e = t.edge_bounds e

let drop_probability t = t.loss
let with_loss p t = { t with loss = Float.min 1. (Float.max 0. p) }

let clamp b d = Float.min b.d_max (Float.max b.d_min d)

let draw t ~edge ~src ~dst ~now ~rng =
  clamp (t.edge_bounds edge) (t.draw_fn ~edge ~src ~dst ~now ~rng)

let uniform b =
  {
    edge_bounds = (fun _ -> b);
    draw_fn =
      (fun ~edge:_ ~src:_ ~dst:_ ~now:_ ~rng ->
        Prng.uniform rng ~lo:b.d_min ~hi:b.d_max);
    loss = 0.;
  }

let per_edge f =
  {
    edge_bounds = f;
    draw_fn =
      (fun ~edge ~src:_ ~dst:_ ~now:_ ~rng ->
        let b = f edge in
        Prng.uniform rng ~lo:b.d_min ~hi:b.d_max);
    loss = 0.;
  }

let controlled b ~default chooser =
  {
    edge_bounds = (fun _ -> b);
    draw_fn =
      (fun ~edge ~src ~dst ~now ~rng ->
        match !chooser with
        | Some choose -> choose ~edge ~src ~dst ~now
        | None -> default.draw_fn ~edge ~src ~dst ~now ~rng);
    (* Keep the base model's loss law so a controlled adversary can overlay
       a lossy model rather than silently disabling its drops. *)
    loss = default.loss;
  }
