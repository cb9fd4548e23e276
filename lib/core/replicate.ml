module Stats = Gcs_util.Stats

type summary = {
  mean : float;
  stddev : float;
  min : float;
  max : float;
  ci95 : float;
  trials : int;
}

let measure ?(jobs = 1) ~seeds f =
  if seeds = [] then invalid_arg "Replicate.measure: no seeds";
  let xs = Gcs_util.Pool.map ~jobs f (Array.of_list seeds) in
  let n = Array.length xs in
  let stddev = Stats.stddev xs in
  {
    mean = Stats.mean xs;
    stddev;
    min = Stats.min xs;
    max = Stats.max xs;
    ci95 = (if n < 2 then 0. else 1.96 *. stddev /. sqrt (float_of_int n));
    trials = n;
  }

let seeds ?(base = 1000) n = List.init n (fun i -> base + (7919 * i))

let to_string ?(digits = 3) s =
  Printf.sprintf "%.*f ± %.*f" digits s.mean digits s.ci95
