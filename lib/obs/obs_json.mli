(** Minimal JSON values: just enough to render {!Obs} snapshots and the
    bench baseline, and to parse them back in tests — no external
    dependency.  The printer emits 2-space-indented, round-trippable
    text; non-finite numbers become [null]. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Lit of string
      (** a number already rendered by {!number_literal}, written as
          is; the parser never produces it *)
  | Str of string
  | List of t list
  | Obj of (string * t) list

val number_literal : float -> string
(** The text the printers write for [Num x]: [null] when [x] is not
    finite, an integer below 10{^15} in magnitude without a point,
    otherwise [%.12g] when it reads back as [x], else [%.17g]. *)

val to_string : t -> string
(** Pretty-printed JSON text. *)

val to_compact_string : t -> string
(** Single-line JSON (no whitespace), for newline-delimited framing —
    the serving wire protocol emits one compact value per line.  Same
    escaping and number formatting as {!to_string}. *)

exception Parse_error of string

val of_string : string -> t
(** Parse JSON text.  Handles everything {!to_string} emits (plus
    arbitrary whitespace), with arrays and objects nested at most 512
    deep; @raise Parse_error on malformed input, and at the bracket
    that would open a 513th level. *)

val member : string -> t -> t option
(** [member name (Obj fields)] looks up a field; [None] on missing
    fields or non-objects. *)
