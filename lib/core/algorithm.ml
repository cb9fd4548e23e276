type ctx = {
  spec : Spec.t;
  graph : Gcs_graph.Graph.t;
  logical : Gcs_clock.Logical_clock.t array;
}

type t = {
  name : string;
  prepare : ctx -> int -> Message.t Gcs_sim.Engine.handlers;
}

type kind =
  | Free_run
  | Max_sync
  | Max_slew_sync
  | Tree_sync
  | Gradient_sync
  | Dynamic_gradient_sync
  | Ft_gradient_sync of int

let kind_name = function
  | Free_run -> "free-run"
  | Max_sync -> "max"
  | Max_slew_sync -> "max-slew"
  | Tree_sync -> "tree"
  | Gradient_sync -> "gradient"
  | Dynamic_gradient_sync -> "dynamic-gradient"
  | Ft_gradient_sync f -> Printf.sprintf "ft-gradient-%d" f

let kind_of_string = function
  | "free-run" | "free" | "none" -> Ok Free_run
  | "max" -> Ok Max_sync
  | "max-slew" | "maxslew" -> Ok Max_slew_sync
  | "tree" | "ntp" -> Ok Tree_sync
  | "gradient" | "gcs" -> Ok Gradient_sync
  | "dynamic-gradient" | "dynamic" | "dgcs" -> Ok Dynamic_gradient_sync
  | "ft-gradient" | "ft" -> Ok (Ft_gradient_sync 1)
  | s -> (
      let prefix = "ft-gradient-" in
      let plen = String.length prefix in
      if String.length s > plen && String.sub s 0 plen = prefix then
        match int_of_string_opt (String.sub s plen (String.length s - plen)) with
        | Some f when f >= 0 -> Ok (Ft_gradient_sync f)
        | Some _ | None ->
            Error (Printf.sprintf "bad fault budget in algorithm %S" s)
      else Error (Printf.sprintf "unknown algorithm %S" s))

let all_kinds =
  [ Free_run; Max_sync; Max_slew_sync; Tree_sync; Gradient_sync;
    Dynamic_gradient_sync; Ft_gradient_sync 1 ]

let timer_beacon = 0
let timer_recheck = 1
