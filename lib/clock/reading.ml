type t = { mutable now : float; mutable hw : float; mutable logical : float }

let create () = { now = 0.; hw = 0.; logical = 0. }
