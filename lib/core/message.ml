type t =
  | Beacon of { value : float }
  | Probe of { seq : int; h_send : float }
  | Probe_reply of { seq : int; h_send : float; remote_value : float }
  | Flood of { round : int; payload : float }
  | Report of { round : int; lo : float; hi : float }
  | Reset of { round : int; payload : float }

let perturb delta = function
  | Beacon { value } -> Some (Beacon { value = value +. delta })
  | Probe_reply { seq; h_send; remote_value } ->
      Some (Probe_reply { seq; h_send; remote_value = remote_value +. delta })
  | Flood { round; payload } -> Some (Flood { round; payload = payload +. delta })
  | Probe _ | Report _ | Reset _ -> None

let to_string = function
  | Beacon { value } -> Printf.sprintf "Beacon(%g)" value
  | Probe { seq; h_send } -> Printf.sprintf "Probe(#%d@%g)" seq h_send
  | Probe_reply { seq; h_send; remote_value } ->
      Printf.sprintf "ProbeReply(#%d@%g->%g)" seq h_send remote_value
  | Flood { round; payload } -> Printf.sprintf "Flood(r%d:%g)" round payload
  | Report { round; lo; hi } -> Printf.sprintf "Report(r%d:[%g,%g])" round lo hi
  | Reset { round; payload } -> Printf.sprintf "Reset(r%d:%g)" round payload
