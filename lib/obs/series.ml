
type point = {
  time : float;
  global_skew : float;
  local_skew : float;
  profile : float array;
  values : float array;
  rates : float array;
  watched : float array;
}

type t = { mutable rev : point list; mutable length : int }

let create () = { rev = []; length = 0 }

let record t p =
  t.rev <- p :: t.rev;
  t.length <- t.length + 1

let length t = t.length
let points t = Array.of_list (List.rev t.rev)

let fnum = Gcs_util.Table.fmt_17g

let csv_header ?(values = 0) ?(rates = 0) ?(hops = 0) ?(watched = 0) () =
  [ "time"; "global_skew"; "local_skew" ]
  @ List.init hops (fun h -> Printf.sprintf "skew_hop%d" (h + 1))
  @ List.init values (fun i -> Printf.sprintf "value%d" i)
  @ List.init rates (fun i -> Printf.sprintf "rate%d" i)
  @ List.init watched (fun i -> Printf.sprintf "watch%d" i)

let csv_row p =
  [ fnum p.time; fnum p.global_skew; fnum p.local_skew ]
  @ List.map fnum (Array.to_list p.profile)
  @ List.map fnum (Array.to_list p.values)
  @ List.map fnum (Array.to_list p.rates)
  @ List.map fnum (Array.to_list p.watched)
