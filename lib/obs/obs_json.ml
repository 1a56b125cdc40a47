type t =
  | Null
  | Bool of bool
  | Num of float
  | Lit of string
  | Str of string
  | List of t list
  | Obj of (string * t) list

(* ------------------------------------------------------------------ *)
(* printing                                                            *)
(* ------------------------------------------------------------------ *)

let escape buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

(* The primitive behind Printf's %f/%g conversions: one call per format
   instead of Printf's format interpretation and buffer. *)
external format_float : string -> float -> string = "caml_format_float"

(* JSON has no representation for non-finite numbers.  Integers below
   1e15 print without a point; any other number takes %.12g when that
   reads back to the same double, else the round-trip width %.17g. *)
let number_literal x =
  if not (Float.is_finite x) then "null"
  else if Float.is_integer x && Float.abs x < 1e15 then format_float "%.0f" x
  else
    let short = format_float "%.12g" x in
    if float_of_string short = x then short else format_float "%.17g" x

let rec write ?(indent = 0) buf j =
  let pad n = Buffer.add_string buf (String.make n ' ') in
  match j with
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Num x -> Buffer.add_string buf (number_literal x)
  | Lit s -> Buffer.add_string buf s
  | Str s -> escape buf s
  | List [] -> Buffer.add_string buf "[]"
  | List items ->
    Buffer.add_string buf "[\n";
    List.iteri
      (fun k item ->
        if k > 0 then Buffer.add_string buf ",\n";
        pad (indent + 2);
        write ~indent:(indent + 2) buf item)
      items;
    Buffer.add_char buf '\n';
    pad indent;
    Buffer.add_char buf ']'
  | Obj [] -> Buffer.add_string buf "{}"
  | Obj fields ->
    Buffer.add_string buf "{\n";
    List.iteri
      (fun k (name, v) ->
        if k > 0 then Buffer.add_string buf ",\n";
        pad (indent + 2);
        escape buf name;
        Buffer.add_string buf ": ";
        write ~indent:(indent + 2) buf v)
      fields;
    Buffer.add_char buf '\n';
    pad indent;
    Buffer.add_char buf '}'

let to_string j =
  let buf = Buffer.create 256 in
  write buf j;
  Buffer.contents buf

(* Single-line rendering for newline-delimited protocols: same escaping
   and number formatting as [write], no whitespace at all. *)
let rec write_compact buf j =
  match j with
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Num x -> Buffer.add_string buf (number_literal x)
  | Lit s -> Buffer.add_string buf s
  | Str s -> escape buf s
  | List items ->
    Buffer.add_char buf '[';
    List.iteri
      (fun k item ->
        if k > 0 then Buffer.add_char buf ',';
        write_compact buf item)
      items;
    Buffer.add_char buf ']'
  | Obj fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun k (name, v) ->
        if k > 0 then Buffer.add_char buf ',';
        escape buf name;
        Buffer.add_char buf ':';
        write_compact buf v)
      fields;
    Buffer.add_char buf '}'

let to_compact_string j =
  let buf = Buffer.create 128 in
  write_compact buf j;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* parsing (recursive descent, enough for our own output)              *)
(* ------------------------------------------------------------------ *)

exception Parse_error of string

type cursor = { s : string; mutable pos : int }

let fail cur msg =
  raise (Parse_error (Printf.sprintf "%s at offset %d" msg cur.pos))

let peek cur = if cur.pos < String.length cur.s then Some cur.s.[cur.pos] else None

let advance cur = cur.pos <- cur.pos + 1

let skip_ws cur =
  let rec go () =
    match peek cur with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance cur;
      go ()
    | _ -> ()
  in
  go ()

let expect cur c =
  match peek cur with
  | Some c' when c' = c -> advance cur
  | _ -> fail cur (Printf.sprintf "expected '%c'" c)

let literal cur word value =
  let n = String.length word in
  if
    cur.pos + n <= String.length cur.s
    && String.sub cur.s cur.pos n = word
  then begin
    cur.pos <- cur.pos + n;
    value
  end
  else fail cur (Printf.sprintf "expected %s" word)

let parse_string cur =
  expect cur '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek cur with
    | None -> fail cur "unterminated string"
    | Some '"' ->
      advance cur;
      Buffer.contents buf
    | Some '\\' ->
      advance cur;
      (match peek cur with
      | Some '"' -> Buffer.add_char buf '"'
      | Some '\\' -> Buffer.add_char buf '\\'
      | Some '/' -> Buffer.add_char buf '/'
      | Some 'n' -> Buffer.add_char buf '\n'
      | Some 'r' -> Buffer.add_char buf '\r'
      | Some 't' -> Buffer.add_char buf '\t'
      | Some 'b' -> Buffer.add_char buf '\b'
      | Some 'f' -> Buffer.add_char buf '\012'
      | Some 'u' ->
        (* decode \uXXXX; non-ASCII code points are emitted raw as a
           single byte when < 256, else replaced — our own output never
           produces them *)
        if cur.pos + 4 >= String.length cur.s then fail cur "bad \\u escape";
        let hex = String.sub cur.s (cur.pos + 1) 4 in
        (match int_of_string_opt ("0x" ^ hex) with
        | Some code when code < 256 -> Buffer.add_char buf (Char.chr code)
        | Some _ -> Buffer.add_char buf '?'
        | None -> fail cur "bad \\u escape");
        cur.pos <- cur.pos + 4
      | _ -> fail cur "bad escape");
      advance cur;
      go ()
    | Some c ->
      advance cur;
      Buffer.add_char buf c;
      go ()
  in
  go ()

let parse_number cur =
  let start = cur.pos in
  let is_num_char = function
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while (match peek cur with Some c -> is_num_char c | None -> false) do
    advance cur
  done;
  let text = String.sub cur.s start (cur.pos - start) in
  match float_of_string_opt text with
  | Some x -> Num x
  | None -> fail cur "bad number"

let rec parse_value cur =
  skip_ws cur;
  match peek cur with
  | None -> fail cur "unexpected end of input"
  | Some 'n' -> literal cur "null" Null
  | Some 't' -> literal cur "true" (Bool true)
  | Some 'f' -> literal cur "false" (Bool false)
  | Some '"' -> Str (parse_string cur)
  | Some '[' ->
    advance cur;
    skip_ws cur;
    if peek cur = Some ']' then begin
      advance cur;
      List []
    end
    else begin
      let rec items acc =
        let v = parse_value cur in
        skip_ws cur;
        match peek cur with
        | Some ',' ->
          advance cur;
          items (v :: acc)
        | Some ']' ->
          advance cur;
          List.rev (v :: acc)
        | _ -> fail cur "expected ',' or ']'"
      in
      List (items [])
    end
  | Some '{' ->
    advance cur;
    skip_ws cur;
    if peek cur = Some '}' then begin
      advance cur;
      Obj []
    end
    else begin
      let field () =
        skip_ws cur;
        let name = parse_string cur in
        skip_ws cur;
        expect cur ':';
        (name, parse_value cur)
      in
      let rec fields acc =
        let f = field () in
        skip_ws cur;
        match peek cur with
        | Some ',' ->
          advance cur;
          fields (f :: acc)
        | Some '}' ->
          advance cur;
          List.rev (f :: acc)
        | _ -> fail cur "expected ',' or '}'"
      in
      Obj (fields [])
    end
  | Some _ -> parse_number cur

let of_string s =
  let cur = { s; pos = 0 } in
  let v = parse_value cur in
  skip_ws cur;
  if cur.pos <> String.length s then fail cur "trailing garbage";
  v

let member name = function
  | Obj fields -> List.assoc_opt name fields
  | _ -> None
