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

let suite =
  [
    Alcotest.test_case "render alignment" `Quick test_render_alignment;
    Alcotest.test_case "pad/truncate rows" `Quick test_rows_padded_and_truncated;
    Alcotest.test_case "fmt_float" `Quick test_fmt_float;
    Alcotest.test_case "column widths" `Quick test_column_widths;
    Alcotest.test_case "fmt_round_trip examples" `Quick
      test_fmt_round_trip_examples;
    QCheck_alcotest.to_alcotest prop_fmt_round_trip;
  ]
