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

(* Every byte is read by the bounds-checked [String.get] after a test of
   [pos < length], so looking at a byte allocates nothing. *)
let looking_at cur c = cur.pos < String.length cur.s && Char.equal cur.s.[cur.pos] c

let advance cur = cur.pos <- cur.pos + 1

let is_ws = function ' ' | '\t' | '\n' | '\r' -> true | _ -> false

let skip_ws cur =
  while cur.pos < String.length cur.s && is_ws cur.s.[cur.pos] do
    advance cur
  done

let expect cur c =
  if looking_at cur c then advance cur else fail cur (Printf.sprintf "expected '%c'" c)

let literal cur word value =
  let n = String.length word and k = ref 0 in
  if cur.pos + n <= String.length cur.s then
    while !k < n && Char.equal cur.s.[cur.pos + !k] word.[!k] do
      incr k
    done;
  if !k = n then begin
    cur.pos <- cur.pos + n;
    value
  end
  else fail cur (Printf.sprintf "expected %s" word)

(* The rest of a string from its first backslash, at [cur.pos]; [buf]
   holds the text before it. *)
let rec escaped cur buf =
  if cur.pos >= String.length cur.s then fail cur "unterminated string";
  match cur.s.[cur.pos] with
  | '"' ->
    advance cur;
    Buffer.contents buf
  | '\\' ->
    advance cur;
    if cur.pos >= String.length cur.s then fail cur "bad escape";
    (match cur.s.[cur.pos] with
    | '"' -> Buffer.add_char buf '"'
    | '\\' -> Buffer.add_char buf '\\'
    | '/' -> Buffer.add_char buf '/'
    | 'n' -> Buffer.add_char buf '\n'
    | 'r' -> Buffer.add_char buf '\r'
    | 't' -> Buffer.add_char buf '\t'
    | 'b' -> Buffer.add_char buf '\b'
    | 'f' -> Buffer.add_char buf '\012'
    | 'u' ->
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
    escaped cur buf
  | c ->
    Buffer.add_char buf c;
    advance cur;
    escaped cur buf

(* A string with no backslash before its closing quote is one
   [String.sub]; only an escaped one goes through a [Buffer]. *)
let parse_string cur =
  expect cur '"';
  let s = cur.s and start = cur.pos in
  while
    cur.pos < String.length s
    && not (Char.equal s.[cur.pos] '"' || Char.equal s.[cur.pos] '\\')
  do
    advance cur
  done;
  if cur.pos >= String.length s then fail cur "unterminated string"
  else if Char.equal s.[cur.pos] '"' then begin
    advance cur;
    String.sub s start (cur.pos - 1 - start)
  end
  else begin
    let buf = Buffer.create (cur.pos - start + 16) in
    Buffer.add_substring buf s start (cur.pos - start);
    escaped cur buf
  end

let is_digit = function '0' .. '9' -> true | _ -> false

let is_num_char = function
  | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
  | _ -> false

(* A number token is the longest run of number characters.  One that is
   an optional minus and at most 15 digits spells an integer below
   10^15, which a double holds exactly, so [float_of_int] gives the bits
   [float_of_string] would ([-0] included, as -0.0); any other token
   goes to [float_of_string_opt], and [value], which a longer run of
   digits may overflow, is not used. *)
let parse_number cur =
  let s = cur.s and start = cur.pos in
  let negative = looking_at cur '-' in
  if negative then advance cur;
  let first = cur.pos and value = ref 0 in
  while cur.pos < String.length s && is_digit s.[cur.pos] do
    value := (10 * !value) + (Char.code s.[cur.pos] - Char.code '0');
    advance cur
  done;
  let digits = cur.pos - first in
  if digits > 0 && digits <= 15 && not (cur.pos < String.length s && is_num_char s.[cur.pos])
  then Num (if negative then -.float_of_int !value else float_of_int !value)
  else begin
    while cur.pos < String.length s && is_num_char s.[cur.pos] do
      advance cur
    done;
    match float_of_string_opt (String.sub s start (cur.pos - start)) with
    | Some x -> Num x
    | None -> fail cur "bad number"
  end

(* Arrays and objects nest at most this deep: the bracket that would
   open one more level is refused, so the recursion below is bounded
   whatever the input. *)
let max_depth = 512

let open_level cur depth =
  if depth >= max_depth then fail cur (Printf.sprintf "nesting deeper than %d" max_depth);
  advance cur;
  skip_ws cur

(* [depth]: the arrays and objects open around the value read *)
let rec parse_value cur depth =
  skip_ws cur;
  if cur.pos >= String.length cur.s then fail cur "unexpected end of input";
  match cur.s.[cur.pos] with
  | 'n' -> literal cur "null" Null
  | 't' -> literal cur "true" (Bool true)
  | 'f' -> literal cur "false" (Bool false)
  | '"' -> Str (parse_string cur)
  | '[' ->
    open_level cur depth;
    if looking_at cur ']' then begin
      advance cur;
      List []
    end
    else List (items cur (depth + 1) [])
  | '{' ->
    open_level cur depth;
    if looking_at cur '}' then begin
      advance cur;
      Obj []
    end
    else Obj (fields cur (depth + 1) [])
  | _ -> parse_number cur

and items cur depth acc =
  let v = parse_value cur depth in
  skip_ws cur;
  if looking_at cur ',' then begin
    advance cur;
    items cur depth (v :: acc)
  end
  else if looking_at cur ']' then begin
    advance cur;
    List.rev (v :: acc)
  end
  else fail cur "expected ',' or ']'"

and fields cur depth acc =
  skip_ws cur;
  let name = parse_string cur in
  skip_ws cur;
  expect cur ':';
  let f = (name, parse_value cur depth) in
  skip_ws cur;
  if looking_at cur ',' then begin
    advance cur;
    fields cur depth (f :: acc)
  end
  else if looking_at cur '}' then begin
    advance cur;
    List.rev (f :: acc)
  end
  else fail cur "expected ',' or '}'"

let of_string s =
  let cur = { s; pos = 0 } in
  let v = parse_value cur 0 in
  skip_ws cur;
  if cur.pos <> String.length s then fail cur "trailing garbage";
  v

let member name = function
  | Obj fields -> List.assoc_opt name fields
  | _ -> None
