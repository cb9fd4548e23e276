(* Two-stage estimate filter.

   Stage 1 *discards* every estimate outside the plausibility window
   [-w, w], w = (2f+1)*kappa. Discarding — rather than clamping — is what
   makes outrageous lies harmless rather than merely damped: an estimate
   pinned at the window edge would keep satisfying the fast trigger's
   "behind <= level" test forever (letting an ahead-lie drag a node away
   from its genuine neighbors without limit), whereas a discarded one is
   simply a silent neighbor. An outrageous liar is thereby exactly as
   harmful as a crashed node, and an in-window liar is bounded by [w] by
   construction: it can pin "behind" at [w] and stall the fast trigger,
   but only until the genuine skew itself reaches level [w]. [w] must be
   an odd multiple of kappa — the trigger fires at levels (2s+1)*kappa,
   so a window between the levels would leave the stalled trigger no
   level to fire at.

   Stage 2 trims the [f] highest and [f] lowest survivors, Bund-et-al
   style, but only down to a floor of 2f+1 — the connectivity their
   fault-tolerant gradient analysis requires. Below that the trigger's
   extremes may be a *single* genuine neighbor, and trimming would erase
   exactly the signal the gradient update needs (a node that can no
   longer see its one genuine leader will not chase it, and that skew has
   no other bound). On sparse topologies (lines, rings, grids: degree <=
   4) the trim is therefore inert and the window carries the weight; in
   dense neighborhoods it removes in-window lies before they can stall
   anything at all.

   The filter runs in place on a prefix of the node's scratch array. Only
   the extremes of the survivors matter to the trigger, so the trim drops
   the t smallest and t largest survivors one at a time rather than
   sorting them. *)
let drop_extreme ~largest (a : float array) n =
  let at = ref 0 in
  for i = 1 to n - 1 do
    let beyond = if largest then a.(i) > a.(!at) else a.(i) < a.(!at) in
    if beyond then at := i
  done;
  a.(!at) <- a.(n - 1)

let filter_prefix ~f ~kappa offsets n =
  let w = float_of_int ((2 * f) + 1) *. kappa in
  let kept = ref 0 in
  for i = 0 to n - 1 do
    let o = offsets.(i) in
    if Float.abs o <= w then begin
      offsets.(!kept) <- o;
      incr kept
    end
  done;
  let t = Int.max 0 (Int.min f ((!kept - (2 * f) - 1) / 2)) in
  for _ = 1 to t do
    drop_extreme ~largest:false offsets !kept;
    decr kept;
    drop_extreme ~largest:true offsets !kept;
    decr kept
  done;
  !kept

let filter_offsets ~f ~kappa offsets =
  let a = Array.copy offsets in
  Array.sub a 0 (filter_prefix ~f ~kappa a (Array.length a))

let algorithm f =
  if f < 0 then invalid_arg "Ft_gradient.algorithm: f must be >= 0";
  {
    Algorithm.name = Printf.sprintf "ft-gradient-%d" f;
    prepare =
      (fun ctx ->
        let kappa = ctx.spec.Spec.kappa in
        Gradient_sync.node
          ~decide:(fun _ offsets _ n ->
            let n = filter_prefix ~f ~kappa offsets n in
            Gradient_sync.fast_trigger_n ~kappa offsets n)
          ctx);
  }
