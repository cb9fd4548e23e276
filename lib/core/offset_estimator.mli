(** Per-neighbor clock offset estimation from one-way beacons.

    When node [v] receives a beacon from neighbor [w] carrying [L_w] as of
    the send instant, it assumes the message spent the midpoint of the delay
    band in flight and that [w]'s logical clock advanced at rate 1
    meanwhile. Between beacons, the estimate of [L_w] is extrapolated at
    [v]'s own hardware rate. The resulting estimate o_{v,w} of
    [L_v - L_w] carries error at most [u / 2] (delay asymmetry) plus drift
    accumulated since the last beacon — exactly the estimate error the
    model reasons about; its bound is {!Spec.estimate_error_bound}.

    A bank holds one node's estimators, one per port, in flat arrays.
    {!scan} writes every fresh estimate into the bank's own scratch arrays
    and returns how many it wrote, so re-evaluating a trigger allocates
    nothing per port. A bank belongs to one node: region-parallel runs
    dispatch nodes on several domains, and the scratch arrays are written
    on every scan. *)

type t

val create : ?spare:int -> int -> t
(** [create ports] is a bank for a node of degree [ports] on which no port
    has delivered a beacon yet. [spare] (default 0) extra slots at the end
    of {!offsets} are left to the caller, for offsets that do not come from
    a port (a reference clock, say). *)

val update :
  t ->
  Gcs_clock.Reading.t ->
  port:int ->
  remote_value:float ->
  elapsed_guess:float ->
  unit
(** [update t r ~port ~remote_value ~elapsed_guess] records a beacon on
    [port]: at local hardware time [h_local = r.hw] the remote clock was
    estimated at [remote_value + elapsed_guess] (the caller supplies the
    assumed in-flight progress, typically the delay-band midpoint). A NaN
    [remote_value] is recorded like any other. *)

val scan : t -> Gcs_clock.Reading.t -> max_age:float -> int
(** [scan t r ~max_age] writes, for the local hardware time
    [h_local = r.hw] and the node's own logical value
    [own_value = r.logical], the estimated
    [own - remote] offset (the o_{v,w} of the model) of every fresh port,
    in increasing port order, into [(offsets t).(0 .. k-1)] and the port
    numbers into [(offset_ports t).(0 .. k-1)], and returns [k]. A port is
    fresh once it has delivered a beacon, until its last beacon is more
    than [max_age] old in local hardware time (staleness expiry:
    extrapolation error grows with age, and a silent neighbor — crashed
    node, dead link — must eventually stop influencing the trigger). An
    age of exactly [max_age] is still fresh; [max_age = infinity] never
    expires. The remote estimate of a port is
    [remote_value + elapsed_guess + (h_local - h_anchor)]. *)

val offsets : t -> float array
(** The scan's offset scratch: [ports] + [spare] slots, of which the last
    {!scan} filled a prefix. Owned by the bank; overwritten by every scan. *)

val offset_ports : t -> int array
(** The scan's port scratch, parallel to the prefix of {!offsets}. *)

val last_beacon : t -> port:int -> float option
(** Local hardware time of the port's most recent beacon. *)
