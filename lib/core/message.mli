(** The wire format shared by all synchronization algorithms.

    A single message type keeps the engine monomorphic per run while letting
    every algorithm (and the self-stabilization layer) speak; algorithms
    simply ignore variants they never send. *)

type t =
  | Beacon of { value : float }
      (** One-way broadcast of the sender's logical clock at send time.
          Used by [Max_sync] and [Gradient_sync]. *)
  | Probe of { seq : int; h_send : float }
      (** Two-way exchange request carrying the sender's hardware clock at
          send time (echoed back verbatim). Used by [Tree_sync]. *)
  | Probe_reply of { seq : int; h_send : float; remote_value : float }
      (** Reply to a [Probe]: echoes [seq] and [h_send] and reports the
          responder's logical clock at reply time. *)
  | Flood of { round : int; payload : float }
      (** Monitor round flowing down the spanning tree; [payload] is the
          sender's estimate of the root's current logical clock. *)
  | Report of { round : int; lo : float; hi : float }
      (** Convergecast reply flowing up the tree: extremes of the offsets
          to the root observed in the sender's subtree. *)
  | Reset of { round : int; payload : float }
      (** Self-stabilizing reset order flowing down the tree; receivers
          jump their logical clock to the accumulated root estimate. *)

val perturb : float -> t -> t option
(** [perturb delta msg] shifts the clock value [msg] carries ([Beacon]'s
    value, [Probe_reply]'s remote value, [Flood]'s payload) by [delta];
    [None] for a variant that carries none. *)

val to_string : t -> string
