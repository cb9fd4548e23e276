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

let fmt_round_trip x =
  let try_digits d = Printf.sprintf "%.*g" d x in
  let s = try_digits 15 in
  if float_of_string s = x then s
  else
    let s = try_digits 16 in
    if float_of_string s = x then s else try_digits 17
