(** Exception-flow and resource-lifecycle checks (rules X001,
    R001-R003) — layer 2 over the {!Effects} summaries.

    - X001 ([check_interface]): a value exported from a [lib/] [.mli]
      has a [Known]-nonempty may-raise summary but its doc comment
      carries no [@raise] tag.  [Top] summaries are skipped (there is
      no exception to name); the fix is a doc tag or a [try/with]
      narrowing in the implementation.
    - R001: a resource bound by [let x = <acquire> in ...] is never
      released in the binding — channels ([open_in]/[open_out]/...),
      [Unix.openfile], [Pool.create] — or a [Mutex.lock] has no
      matching [unlock] in the rest of its statement sequence.
    - R002: the release exists but is unprotected while the code
      between acquire and release may raise (per {!Effects}), so the
      exceptional path leaks; the fix is [Fun.protect ~finally]
      ([Mutex.protect] for locks).  A release inside a [Fun.protect]
      [~finally] argument counts as protected.
    - R003: [Obs.enable] with no balanced [Obs.disable] in the rest of
      the sequence, or an unprotected one behind a may-raising stretch
      — same protocol as R002 but for the telemetry toggle.

    Witness chains are rendered like the P rules
    (["open_out@file:line -> Enc.render@file:line -> Failure@file:line"]).
    Files under lib/par and lib/obs are exempt
    ({!Callgraph.sanctioned}): they are the audited owners of the pool
    and telemetry lifecycles.

    Caveats (DESIGN.md §9): the leak analysis is per-binding and
    syntactic — a handle that escapes (returned, stored in a record)
    reads as leaked, and a release hidden behind both branches of an
    [if] is seen only if one lands in the statement sequence; use
    [\[@lint.allow "R001"\]] with a comment for deliberate
    ownership transfer. *)

val check_interface :
  eff:Effects.env ->
  file:string ->
  report:(Rules.t -> Location.t -> string -> unit) ->
  Parsetree.signature ->
  unit
(** X001 over one parsed [lib/] interface ([report] is anchored at the
    [val] declaration). *)

val check_structure :
  eff:Effects.env ->
  file:string ->
  report:(Rules.t -> Location.t -> string -> unit) ->
  Parsetree.structure ->
  unit
(** R001-R003 over one parsed implementation. *)
