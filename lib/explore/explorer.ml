module Runner = Gcs_core.Runner
module Monitor = Gcs_check.Monitor
module Check_run = Gcs_check.Check_run

type strategy = Bfs | Dfs

let strategy_name = function Bfs -> "bfs" | Dfs -> "dfs"

let strategy_of_string = function
  | "bfs" -> Ok Bfs
  | "dfs" -> Ok Dfs
  | s -> Error (Printf.sprintf "unknown strategy %S (expected bfs or dfs)" s)

type stats = {
  states_visited : int;
  executions : int;
  pruned : int;
  distinct_states : int;
  max_depth : int;
  frontier_high_water : int;
  events_checked : int;
}

type verdict =
  | Proved
  | Violated of { trace : Choice.trace; violation : Monitor.violation }
  | Budget_exhausted

type outcome = {
  verdict : verdict;
  stats : stats;
  dedup : bool;
  strategy : strategy;
  quantum : float;
  max_states : int;
}

let simulate (inst : Instance.t) trace =
  let depth = List.length trace in
  if depth = 0 then Error "Explorer.simulate: empty trace (zero horizon)"
  else
    Result.map
      (Check_run.run ~monitor:inst.Instance.monitor ~moves:trace
         ~segment_len:inst.Instance.segment_len)
      (Runner.config_of_key (Instance.key inst ~depth))

(* A frontier that is a FIFO under Bfs and a LIFO under Dfs, with O(1)
   size tracking for the high-water statistic. *)
module Frontier = struct
  type 'a t = {
    strategy : strategy;
    queue : 'a Queue.t;
    mutable stack : 'a list;
    mutable size : int;
  }

  let create strategy =
    { strategy; queue = Queue.create (); stack = []; size = 0 }

  let push t x =
    t.size <- t.size + 1;
    match t.strategy with
    | Bfs -> Queue.add x t.queue
    | Dfs -> t.stack <- x :: t.stack

  let pop t =
    match t.strategy with
    | Bfs -> (
        match Queue.take_opt t.queue with
        | None -> None
        | Some x ->
            t.size <- t.size - 1;
            Some x)
    | Dfs -> (
        match t.stack with
        | [] -> None
        | x :: rest ->
            t.stack <- rest;
            t.size <- t.size - 1;
            Some x)

  let size t = t.size
end

let explore ?(dedup = false) ?(quantum = 1e-9) ?(max_states = 100_000)
    ?(strategy = Bfs) (inst : Instance.t) =
  let frontier = Frontier.create strategy in
  let memo : (int * string, unit) Hashtbl.t = Hashtbl.create 256 in
  let states_visited = ref 0 in
  let executions = ref 0 in
  let pruned = ref 0 in
  let max_depth = ref 0 in
  let high_water = ref 0 in
  let events_checked = ref 0 in
  let note_frontier () =
    if Frontier.size frontier > !high_water then
      high_water := Frontier.size frontier
  in
  let push_children trace =
    (* Children in alphabet order either way: a stack pops in reverse push
       order, so Dfs pushes them reversed. *)
    let children = List.map (fun m -> trace @ [ m ]) inst.Instance.alphabet in
    let children =
      match strategy with Bfs -> children | Dfs -> List.rev children
    in
    List.iter (Frontier.push frontier) children;
    note_frontier ()
  in
  push_children [];
  let rec loop () =
    match Frontier.pop frontier with
    | None -> Proved
    | Some trace ->
        if !states_visited >= max_states then Budget_exhausted
        else begin
          match simulate inst trace with
          | Error msg -> invalid_arg ("Explorer.explore: " ^ msg)
          | Ok sim -> (
              incr states_visited;
              events_checked := !events_checked + sim.Check_run.events_checked;
              let len = List.length trace in
              if len > !max_depth then max_depth := len;
              match sim.Check_run.violation with
              | Some violation -> Violated { trace; violation }
              | None ->
                  if len = inst.Instance.depth then begin
                    incr executions;
                    loop ()
                  end
                  else begin
                    let expand =
                      if not dedup then true
                      else begin
                        (* Keyed on remaining depth as well as state: equal
                           configurations with different exploration left
                           are not interchangeable. *)
                        let k =
                          ( inst.Instance.depth - len,
                            Canon.state ~quantum sim.Check_run.live )
                        in
                        if Hashtbl.mem memo k then begin
                          incr pruned;
                          false
                        end
                        else begin
                          Hashtbl.add memo k ();
                          true
                        end
                      end
                    in
                    if expand then push_children trace;
                    loop ()
                  end)
        end
  in
  let verdict = loop () in
  {
    verdict;
    stats =
      {
        states_visited = !states_visited;
        executions = !executions;
        pruned = !pruned;
        distinct_states = Hashtbl.length memo;
        max_depth = !max_depth;
        frontier_high_water = !high_water;
        events_checked = !events_checked;
      };
    dedup;
    strategy;
    quantum;
    max_states;
  }
