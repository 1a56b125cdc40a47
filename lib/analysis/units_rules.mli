(** Dimensional analysis over the solver numerics — the U-rule family.

    A two-pass analysis on top of the syntactic linter:

    + {b Collection}: every [.mli] in the lint set is parsed and its
      [\[@units "..."\]] annotations harvested — units of value
      parameters and results (attributes on the [float] core types of a
      [val] arrow) and units of record fields (on label declarations,
      including inline records of variant constructors).  Containers
      are transparent: the unit annotated inside
      [(float\[@units "freq"\]) array] is the unit carried by the
      array's elements.
    + {b Checking}: each [.ml] is walked with an intra-procedural
      abstract evaluator mapping expressions to units.  Known units
      enter through the module's own signature (parameters of exported
      functions), through explicit [(e : (float\[@units "..."\]))]
      constraints, and through annotated record fields; they propagate
      through float arithmetic ([+.]/[-.] and comparisons demand equal
      units, [*.]/[/.] combine them, [**]/[sqrt] scale exponents,
      literals are polymorphic) and interprocedurally through call
      sites of annotated signatures.  Anything the evaluator cannot
      prove has a unit is [Unknown] and generates no diagnostic — the
      pass is conservative by construction.

    Rules:
    - {b U001} — unit mismatch between the operands of an addition,
      subtraction, comparison or min/max.
    - {b U002} — unit mismatch against a declared annotation: argument
      at an annotated call site, annotated record field, value
      constraint, or the result of an exported function.
    - {b U003} — public [float] (or [float array/option/list]) in a
      [lib/core] or [lib/platform] interface without a [\[@units\]]
      annotation.

    Suppression uses the same machinery as the E rules:
    [\[@lint.allow "U001"\]] on an expression, [\[@@lint.allow\]] on a
    binding or value declaration, [\[@@@lint.allow\]] file-wide. *)

type env
(** Mutable interprocedural knowledge: value signatures and record
    field units, keyed by module ([Speed.fmin]) and field name. *)

val empty_env : unit -> env

val collect_interface :
  env -> module_name:string -> Parsetree.signature -> unit
(** Pass 1.  Malformed [\[@units\]] payloads are treated as absent
    here; they surface as operational errors when the annotated file
    itself is linted (pass 2). *)

val check_interface :
  annotate_scope:bool ->
  report:(Rules.t -> Location.t -> string -> unit) ->
  error:(string -> unit) ->
  Parsetree.signature ->
  unit
(** Pass 2 over an interface: U003, enabled when [annotate_scope] (the
    file lives under [lib/core] or [lib/platform]), plus malformed
    [\[@units\]] payloads through [error] (an operational error, like a
    malformed [\[@lint.allow\]] payload). *)

val check_structure :
  env ->
  module_name:string ->
  report:(Rules.t -> Location.t -> string -> unit) ->
  error:(string -> unit) ->
  Parsetree.structure ->
  unit
(** Pass 2 over an implementation: U001/U002 via abstract
    evaluation. *)
