(* Struct-of-arrays per port: [update] writes two floats, [scan] reads them
   and writes its results into the bank's own scratch arrays. The local
   clock values come in a flat reading, so no float crosses a function
   boundary and neither allocates, even where cross-module inlining is
   off. *)
type t = {
  heard : Bytes.t;  (* '\001' once the port has delivered a beacon *)
  h_anchor : float array;
  remote_at_anchor : float array;
  offsets : float array;
  offset_ports : int array;
}

let create ?(spare = 0) ports =
  {
    heard = Bytes.make ports '\000';
    h_anchor = Array.make ports 0.;
    remote_at_anchor = Array.make ports 0.;
    offsets = Array.make (ports + spare) 0.;
    offset_ports = Array.make ports 0;
  }

let offsets t = t.offsets
let offset_ports t = t.offset_ports

let update t (r : Gcs_clock.Reading.t) ~port ~remote_value ~elapsed_guess =
  Bytes.set t.heard port '\001';
  t.h_anchor.(port) <- r.hw;
  t.remote_at_anchor.(port) <- remote_value +. elapsed_guess

let scan t (r : Gcs_clock.Reading.t) ~max_age =
  let h_local = r.hw and own_value = r.logical in
  let count = ref 0 in
  for port = 0 to Array.length t.h_anchor - 1 do
    if Bytes.get t.heard port <> '\000' then begin
      let age = h_local -. t.h_anchor.(port) in
      if not (age > max_age) then begin
        t.offsets.(!count) <- own_value -. (t.remote_at_anchor.(port) +. age);
        t.offset_ports.(!count) <- port;
        incr count
      end
    end
  done;
  !count

let last_beacon t ~port =
  if Bytes.get t.heard port = '\000' then None else Some t.h_anchor.(port)
