module Pool = Gcs_util.Pool
module Logical_clock = Gcs_clock.Logical_clock

let run ?jobs cfgs = Pool.map ?jobs Runner.run cfgs

type cache_stats = { hits : int; misses : int; fresh_dispatches : int }

let run_cached ?jobs ?store keys =
  let n = Array.length keys in
  let outcomes : Gcs_store.Outcome.t option array = Array.make n None in
  let miss_rev = ref [] in
  Array.iteri
    (fun i key ->
      match Option.bind store (fun st -> Gcs_store.Store.find st key) with
      | Some o -> outcomes.(i) <- Some o
      | None -> miss_rev := i :: !miss_rev)
    keys;
  let miss = Array.of_list (List.rev !miss_rev) in
  (* Every miss becomes a config before anything runs, so a key that names
     no valid run fails the batch up front. *)
  let cells =
    Array.map
      (fun i ->
        match Runner.config_of_key keys.(i) with
        | Ok cfg -> (keys.(i), cfg)
        | Error msg -> invalid_arg msg)
      miss
  in
  (* Simulate only the misses, sharded like [run]; each worker persists
     its cell as soon as it finishes, so an interrupted batch resumes
     from whatever completed (the store serializes writers internally). *)
  let fresh =
    Pool.map ?jobs
      (fun (key, cfg) ->
        let r = Runner.run cfg in
        let o = Runner.outcome r in
        Option.iter (fun st -> Gcs_store.Store.put st key o) store;
        (o, r.Runner.dispatches))
      cells
  in
  let fresh_dispatches = ref 0 in
  Array.iteri
    (fun j i ->
      let o, d = fresh.(j) in
      outcomes.(i) <- Some o;
      fresh_dispatches := !fresh_dispatches + d)
    miss;
  let outcomes = Array.map Option.get outcomes in
  ( outcomes,
    {
      hits = n - Array.length miss;
      misses = Array.length miss;
      fresh_dispatches = !fresh_dispatches;
    } )

type merged = {
  summaries : Metrics.summary array;
  events : int;
  messages : int;
  dropped : int;
  dropped_faults : int;
  jumps : Logical_clock.jump_stats;
  series : (int * Gcs_obs.Series.point) array;
  profile : Gcs_obs.Profiler.report option;
}

let merge (results : Runner.result array) =
  let summaries = Array.map (fun r -> r.Runner.summary) results in
  (* Series points: concatenate in input order, tag with run index,
     stable-sort on time only, so ties keep run-index (then within-run)
     order. *)
  let series =
    Array.concat
      (Array.to_list
         (Array.mapi
            (fun i (r : Runner.result) ->
              match r.Runner.obs.Gcs_obs.Capture.series with
              | None -> [||]
              | Some s -> Array.map (fun p -> (i, p)) (Gcs_obs.Series.points s))
            results))
  in
  Array.stable_sort
    (fun (_, (a : Gcs_obs.Series.point)) (_, (b : Gcs_obs.Series.point)) ->
      compare a.Gcs_obs.Series.time b.Gcs_obs.Series.time)
    series;
  let profile =
    match
      Array.to_list results
      |> List.filter_map (fun (r : Runner.result) ->
             r.Runner.obs.Gcs_obs.Capture.profile)
    with
    | [] -> None
    | reports -> Some (Gcs_obs.Profiler.merge reports)
  in
  let events = ref 0 and messages = ref 0 in
  let dropped = ref 0 and dropped_faults = ref 0 in
  let jumps =
    ref { Logical_clock.count = 0; total_magnitude = 0.; max_magnitude = 0. }
  in
  Array.iter
    (fun (r : Runner.result) ->
      events := !events + r.Runner.events;
      messages := !messages + r.Runner.messages;
      dropped := !dropped + r.Runner.dropped;
      dropped_faults := !dropped_faults + r.Runner.dropped_faults;
      let j = r.Runner.jumps in
      jumps :=
        {
          Logical_clock.count = !jumps.Logical_clock.count + j.Logical_clock.count;
          total_magnitude =
            !jumps.Logical_clock.total_magnitude
            +. j.Logical_clock.total_magnitude;
          max_magnitude =
            Float.max !jumps.Logical_clock.max_magnitude
              j.Logical_clock.max_magnitude;
        })
    results;
  {
    summaries;
    events = !events;
    messages = !messages;
    dropped = !dropped;
    dropped_faults = !dropped_faults;
    jumps = !jumps;
    series;
    profile;
  }
