let ahead_of_us ~threshold offsets n =
  let ahead = ref false in
  for i = 0 to n - 1 do
    if -.offsets.(i) > threshold then ahead := true
  done;
  !ahead

let algorithm =
  {
    Algorithm.name = "max-slew";
    prepare =
      (fun ctx ->
        let threshold = Spec.estimate_error_bound ctx.spec in
        Gradient_sync.node
          ~decide:(fun _ offsets _ n ->
            ahead_of_us ~threshold offsets n)
          ctx);
  }
