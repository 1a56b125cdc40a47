type t = { columns : string list; mutable rows : string list list }

let create ~columns = { columns; rows = [] }

let add_row t row =
  if List.length row <> List.length t.columns then
    invalid_arg "Table.add_row: arity mismatch";
  t.rows <- row :: t.rows

(* A cell is "numeric-looking" when it parses as a float; those are
   right-aligned, labels are left-aligned. *)
let numericp s = match float_of_string_opt s with Some _ -> true | None -> false

let render ?caption t =
  let rows = List.rev t.rows in
  let all = t.columns :: rows in
  let ncols = List.length t.columns in
  let widths = Array.make ncols 0 in
  let record row =
    List.iteri (fun i cell -> widths.(i) <- max widths.(i) (String.length cell)) row
  in
  List.iter record all;
  let buf = Buffer.create 1024 in
  (match caption with
  | Some c ->
    Buffer.add_string buf c;
    Buffer.add_char buf '\n'
  | None -> ());
  let pad i cell =
    let w = widths.(i) in
    let n = w - String.length cell in
    if numericp cell then String.make n ' ' ^ cell else cell ^ String.make n ' '
  in
  let emit_row row =
    List.iteri
      (fun i cell ->
        if i > 0 then Buffer.add_string buf "  ";
        Buffer.add_string buf (pad i cell))
      row;
    Buffer.add_char buf '\n'
  in
  emit_row t.columns;
  let total = Array.fold_left ( + ) 0 widths + (2 * (ncols - 1)) in
  Buffer.add_string buf (String.make total '-');
  Buffer.add_char buf '\n';
  List.iter emit_row rows;
  Buffer.contents buf

(* stdout is this entry point's contract: the experiment harness calls
   it to emit result tables directly *)
let print ?caption t =
  print_string (render ?caption t);
  print_newline ()
[@@lint.allow "E004"]

let render_csv t =
  let buf = Buffer.create 512 in
  let escape cell =
    if String.exists (fun c -> c = ',' || c = '"' || c = '\n') cell then
      "\"" ^ String.concat "\"\"" (String.split_on_char '"' cell) ^ "\""
    else cell
  in
  let emit row =
    Buffer.add_string buf (String.concat "," (List.map escape row));
    Buffer.add_char buf '\n'
  in
  emit t.columns;
  List.iter emit (List.rev t.rows);
  Buffer.contents buf
