module Stats = Gcs_util.Stats

type summary = {
  mean : float;
  stddev : float;
  min : float;
  max : float;
  ci95 : float;
  trials : int;
}

let summarize xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Replicate.summarize: no values";
  let stddev = Stats.stddev xs in
  {
    mean = Stats.mean xs;
    stddev;
    min = Stats.min xs;
    max = Stats.max xs;
    ci95 = (if n < 2 then 0. else 1.96 *. stddev /. sqrt (float_of_int n));
    trials = n;
  }

let measure ?(jobs = 1) ~seeds f =
  if seeds = [] then invalid_arg "Replicate.measure: no seeds";
  summarize (Gcs_util.Pool.map ~jobs f (Array.of_list seeds))

let seeds ?(base = 1000) n = List.init n (fun i -> base + (7919 * i))

let to_string ?(digits = 3) s =
  Printf.sprintf "%.*f ± %.*f" digits s.mean digits s.ci95
