module Table = Gcs_util.Table

let test_render_alignment () =
  let out =
    Table.render
      ~columns:[ Table.column ~align:Table.Left "name"; Table.column "value" ]
      ~rows:[ [ "a"; "1" ]; [ "long-name"; "22" ] ]
  in
  let lines = String.split_on_char '\n' out in
  (match lines with
  | header :: _rule :: row1 :: _ ->
      Alcotest.(check bool) "header contains name" true
        (String.length header > 0);
      Alcotest.(check bool) "left-aligned data" true
        (String.sub row1 2 1 = "a")
  | _ -> Alcotest.fail "unexpected shape");
  Alcotest.(check bool) "right-aligns numbers" true
    (String.length out > 0)

let test_rows_padded_and_truncated () =
  let out =
    Table.render
      ~columns:[ Table.column "a"; Table.column "b" ]
      ~rows:[ [ "1" ]; [ "1"; "2"; "3" ] ]
  in
  List.iter
    (fun line ->
      if line <> "" then
        Alcotest.(check bool) "no third column leaks" true
          (not (String.contains line '3')))
    (String.split_on_char '\n' out)

let test_fmt_float () =
  Alcotest.(check string) "default digits" "1.500" (Table.fmt_float 1.5);
  Alcotest.(check string) "digits" "1.50" (Table.fmt_float ~digits:2 1.5);
  Alcotest.(check string) "nan dash" "-" (Table.fmt_float nan)

let test_column_widths () =
  let out =
    Table.render
      ~columns:[ Table.column "x" ]
      ~rows:[ [ "wide-cell" ] ]
  in
  (* Every line must be at least as wide as the widest cell plus margin. *)
  List.iter
    (fun line ->
      if line <> "" then
        Alcotest.(check bool) "width fits content" true
          (String.length line >= String.length "wide-cell"))
    (String.split_on_char '\n' out)

(* Every float reads back exactly, and a decimal of at most six
   significant digits below 1e6 prints as %g printed it, which is what
   keeps hand-written plans, fixtures and goldens byte-stable. *)
let prop_fmt_round_trip =
  QCheck.Test.make ~name:"fmt_round_trip is exact and %g on short decimals"
    ~count:2000
    QCheck.(pair float (pair (int_range (-999_999) 999_999) (int_range 0 10)))
    (fun (x, (k, j)) ->
      let exact =
        Float.is_nan x || float_of_string (Table.fmt_round_trip x) = x
      in
      let d = float_of_int k /. (10. ** float_of_int j) in
      exact && Table.fmt_round_trip d = Printf.sprintf "%g" d)

let test_fmt_round_trip_examples () =
  List.iter
    (fun (x, s) -> Alcotest.(check string) s s (Table.fmt_round_trip x))
    [
      (20., "20");
      (0.1, "0.1");
      (1.5e-5, "1.5e-05");
      (20.01287683389701, "20.01287683389701");
      (0.1 +. 0.2, "0.30000000000000004");
      (1. /. 3., "0.3333333333333333");
    ]

(* The shared %.17g printer gives Printf's bytes. The floats are drawn
   where it could go wrong: any bit pattern (subnormals, NaN payloads,
   infinities and zeros among them), a log-uniform spread over its fast
   path and past both ends, exact ties at the 17th significant digit,
   the floats just below a power of ten, whose rounding carries through
   a run of nines, and the few floats around each power of ten and each
   end of the fast path. *)
let step x d =
  Int64.float_of_bits (Int64.add (Int64.bits_of_float x) (Int64.of_int d))

(* A float whose exact decimal expansion has 18 significant digits, the
   last a 5, so %.17g rounds a tie: (n * 2^j + odd) / 2^j has exactly j
   digits after the point, the last a 5, and n has the other 18 - j. Below
   1 (j >= 18) there is no n, and the j digits start with z = j - 18
   zeros. *)
let gen_tie =
  let open QCheck.Gen in
  let* j = int_range 2 21 in
  if j <= 17 then
    let digits = 18 - j in
    let lo = int_of_float (10. ** float_of_int (digits - 1)) in
    let hi =
      min (int_of_float (10. ** float_of_int digits)) (1 lsl (53 - j))
    in
    let+ n = int_range lo (max lo (hi - 1))
    and+ odd = int_bound ((1 lsl (j - 1)) - 1) in
    Float.ldexp (float_of_int ((n lsl j) + (2 * odd) + 1)) (-j)
  else
    let z = j - 18 in
    let scale = Float.ldexp 1. j in
    let lo = int_of_float (scale /. (10. ** float_of_int (z + 1))) + 1
    and hi = int_of_float (scale /. (10. ** float_of_int z)) - 1 in
    let+ odd = int_range (lo / 2) ((hi - 1) / 2) in
    Float.ldexp (float_of_int ((2 * odd) + 1)) (-j)

let gen_17g =
  let open QCheck.Gen in
  let g =
    frequency
      [
        (3, map Int64.float_of_bits ui64);
        ( 1,
          map2
            (fun e mant ->
              Int64.float_of_bits
                (Int64.logor (Int64.shift_left (Int64.of_int e) 52)
                   (Int64.logand mant 0xF_FFFF_FFFF_FFFFL)))
            (oneofl [ 0; 0x7FF ]) ui64 );
        ( 1,
          oneofl [ 0.; Float.infinity; Float.nan; 4.9e-324; Float.max_float ]
        );
        (3, map (fun e -> 10. ** e) (float_range (-6.) 17.));
        (3, gen_tie);
        ( 2,
          map2
            (fun p d -> step (10. ** float_of_int p) (-d))
            (int_range (-5) 17) (int_range 1 3000) );
        ( 1,
          map2
            (fun p d -> step (10. ** float_of_int p) d)
            (int_range (-5) 17) (int_range (-2) 2) );
        (2, map2 step (oneofl [ 1e-4; 0x1p53 ]) (int_range (-4) 4));
      ]
  in
  map2 (fun x neg -> if neg then -.x else x) g bool

let prop_add_17g =
  QCheck.Test.make ~name:"fmt_17g = Printf %.17g" ~count:20_000
    (QCheck.make ~print:(Printf.sprintf "%h") gen_17g)
    (fun x ->
      let want = Printf.sprintf "%.17g" x and got = Table.fmt_17g x in
      let buf = Buffer.create 4 in
      Buffer.add_string buf "x=";
      Table.add_17g buf x;
      (String.equal got want
      || QCheck.Test.fail_reportf "got %s, want %s" got want)
      && String.equal (Buffer.contents buf) ("x=" ^ want))

let suite =
  [
    Alcotest.test_case "render alignment" `Quick test_render_alignment;
    Alcotest.test_case "pad/truncate rows" `Quick test_rows_padded_and_truncated;
    Alcotest.test_case "fmt_float" `Quick test_fmt_float;
    Alcotest.test_case "column widths" `Quick test_column_widths;
    Alcotest.test_case "fmt_round_trip examples" `Quick
      test_fmt_round_trip_examples;
    QCheck_alcotest.to_alcotest prop_fmt_round_trip;
    QCheck_alcotest.to_alcotest prop_add_17g;
  ]
