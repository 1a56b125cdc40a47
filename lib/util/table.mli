(** ASCII table rendering for the experiment harness.

    Every experiment in [bin/experiments.ml] prints its results through
    this module so that all tables of the reproduction share one layout
    (aligned columns, a header rule, optional caption), making the
    output directly comparable with the paper's tables. *)

type t
(** A table under construction. *)

val create : columns:string list -> t
(** [create ~columns] starts a table with the given header.  Every row
    added later must have the same arity. *)

val add_row : t -> string list -> unit
(** Append a row of pre-rendered cells.  Raises [Invalid_argument] on
    arity mismatch.

    @raise Invalid_argument on a row arity mismatch with the header. *)

val render : ?caption:string -> t -> string
(** Render with padded, right-aligned numeric-looking cells and a rule
    under the header. *)

val print : ?caption:string -> t -> unit
(** [render] followed by [print_string] and a trailing newline. *)

val render_csv : t -> string
(** Comma-separated rendering (header + rows); cells containing commas
    or quotes are quoted.  For piping experiment output into plotting
    tools. *)
