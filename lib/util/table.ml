type align = Left | Right
type column = { header : string; align : align }

let column ?(align = Right) header = { header; align }

let pad align width s =
  let n = String.length s in
  if n >= width then s
  else begin
    let fill = String.make (width - n) ' ' in
    match align with Left -> s ^ fill | Right -> fill ^ s
  end

let normalize_row ncols row =
  let rec take n = function
    | [] -> if n = 0 then [] else "" :: take (n - 1) []
    | x :: rest -> if n = 0 then [] else x :: take (n - 1) rest
  in
  take ncols row

let render ~columns ~rows =
  let ncols = List.length columns in
  let rows = List.map (normalize_row ncols) rows in
  let headers = List.map (fun c -> c.header) columns in
  let widths =
    List.mapi
      (fun i c ->
        let cell_width row = String.length (List.nth row i) in
        List.fold_left
          (fun w row -> max w (cell_width row))
          (String.length c.header) rows)
      columns
  in
  let render_row row =
    let cells =
      List.mapi
        (fun i cell ->
          let c = List.nth columns i in
          let w = List.nth widths i in
          pad c.align w cell)
        row
    in
    "  " ^ String.concat "  " cells
  in
  let rule =
    "  " ^ String.concat "  " (List.map (fun w -> String.make w '-') widths)
  in
  let buf = Buffer.create 256 in
  Buffer.add_string buf (render_row headers);
  Buffer.add_char buf '\n';
  Buffer.add_string buf rule;
  Buffer.add_char buf '\n';
  List.iter
    (fun row ->
      Buffer.add_string buf (render_row row);
      Buffer.add_char buf '\n')
    rows;
  Buffer.contents buf

let print ~title ~columns ~rows =
  Printf.printf "\n%s\n%s\n%s" title
    (String.make (String.length title) '=')
    (render ~columns ~rows);
  flush stdout

let fmt_float ?(digits = 3) x =
  if Float.is_nan x then "-" else Printf.sprintf "%.*f" digits x

(* The runtime's formatter is the C call Printf's "%.17g" ends in. *)
external format_float : string -> float -> string = "caml_format_float"

(* %.17g keeps 17 significant digits, and from 10^-4 up to below 10^17
   it prints them in fixed notation: so for 10^-4 <= |x| < 2^53 its text
   is the exact decimal value of x rounded half to even to 17 significant
   digits, with trailing zeros and a bare point stripped. That is computed
   here with ints. x = m / 2^k with k in [0, 66]; the fraction r / 2^k
   (r = m mod 2^k) is held exactly as r * 2^(66 - k) in two 33-bit limbs,
   so multiplying both limbs by 10^s yields the next s digits, and the
   digits, integer part included, gather in one int of 17 digits. Every
   other float goes to the C formatter. *)
let limb = 33
let limb_mask = (1 lsl limb) - 1
let half_limb = 1 lsl (limb - 1)

let pow10 =
  let a = Array.make 19 1 in
  for i = 1 to 18 do
    a.(i) <- 10 * a.(i - 1)
  done;
  a

(* The text is written backwards into a scratch of its own (a shared one
   could be overwritten by another thread midway), then appended in one
   blit. It is at most 23 bytes: a sign, "0.", 3 zeros and 17 digits. *)
let scratch_len = 23

(* The digits of [n > 0], counted from [i]. *)
let rec count_digits n i =
  if n >= pow10.(i) then count_digits n (i + 1) else i

let add_fixed17 buf x =
  (* The low 63 bits: the sign bit goes, [lsr] reads the exponent. *)
  let bits = Int64.to_int (Int64.bits_of_float x) in
  let m = bits land 0xF_FFFF_FFFF_FFFF lor 0x10_0000_0000_0000 in
  let k = 1075 - (bits lsr 52) in
  let ip = if k > 52 then 0 else m lsr k in
  let r = if k > 52 then m else m land ((1 lsl k) - 1) in
  let hi = ref 0 and lo = ref 0 in
  if k <= limb then hi := r lsl (limb - k)
  else begin
    hi := r lsr (k - limb);
    lo := (r land ((1 lsl (k - limb)) - 1)) lsl (66 - k)
  end;
  (* [nf] digits after the point make 17 significant ones. Below 1 the
     zeros after the point do not count; each [10^-j] is the double just
     above it, so comparing with it counts them exactly. *)
  let a = Float.abs x in
  let nf =
    if ip > 0 then 17 - count_digits ip 1
    else if a >= 0.1 then 17
    else if a >= 0.01 then 18
    else if a >= 0.001 then 19
    else 20
  in
  (* Up to 8 digits per step: a limb times 10^8 stays below 2^60. [d]
     gathers them after the integer part. *)
  let d = ref ip and left = ref nf in
  while !left > 0 do
    let s = if !left >= 8 then 8 else !left in
    let p = pow10.(s) in
    let l = !lo * p in
    let h = (!hi * p) + (l lsr limb) in
    lo := l land limb_mask;
    hi := h land limb_mask;
    d := (!d * p) + (h lsr limb);
    left := !left - s
  done;
  (* The rest, [hi, lo] / 2^66 of a unit in the last digit, rounds half
     to even; a carry out of the top digit lands in the int. *)
  if !hi > half_limb || (!hi = half_limb && (!lo > 0 || !d land 1 = 1)) then
    incr d;
  let nf = ref nf in
  let ip = if !nf >= 18 then 0 else !d / pow10.(!nf) in
  let frac = ref (if !nf >= 18 then !d else !d - (ip * pow10.(!nf))) in
  (* %g strips trailing zeros. *)
  while !nf > 0 && !frac mod 10 = 0 do
    frac := !frac / 10;
    decr nf
  done;
  let out = Bytes.create scratch_len in
  let pos = ref (scratch_len - !nf) in
  if !nf > 0 then begin
    for i = scratch_len - 1 downto !pos do
      Bytes.unsafe_set out i (Char.unsafe_chr (48 + (!frac mod 10)));
      frac := !frac / 10
    done;
    decr pos;
    Bytes.unsafe_set out !pos '.'
  end;
  let n = ref ip in
  decr pos;
  Bytes.unsafe_set out !pos (Char.unsafe_chr (48 + (!n mod 10)));
  while !n >= 10 do
    n := !n / 10;
    decr pos;
    Bytes.unsafe_set out !pos (Char.unsafe_chr (48 + (!n mod 10)))
  done;
  if Float.sign_bit x then begin
    decr pos;
    Bytes.unsafe_set out !pos '-'
  end;
  Buffer.add_subbytes buf out !pos (scratch_len - !pos)

let add_17g buf x =
  let a = Float.abs x in
  if a >= 1e-4 && a < 0x1p53 then add_fixed17 buf x
  else if a = 0. then
    Buffer.add_string buf (if Float.sign_bit x then "-0" else "0")
  else Buffer.add_string buf (format_float "%.17g" x)

let fmt_17g x =
  let buf = Buffer.create 24 in
  add_17g buf x;
  Buffer.contents buf

let fmt_round_trip x =
  let try_digits d = Printf.sprintf "%.*g" d x in
  let s = try_digits 15 in
  if float_of_string s = x then s
  else
    let s = try_digits 16 in
    if float_of_string s = x then s else fmt_17g x
