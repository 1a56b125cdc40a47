(** The lint rule catalogue.

    - E001: polymorphic structural ops ([compare], [Hashtbl.hash]).
    - E002: partial stdlib functions ([List.hd], [List.tl], [List.nth],
      [Option.get], [Float.of_string]).
    - E003: catch-all exception handlers ([with _ ->], [with e -> ()]).
    - E004: direct printing from [lib/] (and [test/]) code.
    - E005: [lib/] module missing its [.mli] (test runners are
      executables and owe none).
    - E006: [Obj.magic] / [Marshal] anywhere.
    - E007: module-level mutable state ([ref], [mutable] record fields,
      [Hashtbl]/[Queue]/[Stack]/[Buffer] created at top level) in the
      domain-shared libraries ([lib/core], [lib/sched], [lib/sim]).
      Top-level [Atomic.make]/[Mutex.create]/[Condition.create] are
      domain-safe and exempt.
    - U001: unit mismatch in a float addition/subtraction/comparison.
    - U002: unit mismatch against a [\[@units\]] annotation (call site,
      record field, constraint, exported result).
    - U003: unannotated public float in [lib/core] / [lib/platform].
    - P001: a parallel region (closure handed to an [Es_par] combinator)
      captures and writes mutable state defined outside the region.
    - P002: ambient nondeterminism ([Random.*], wall clocks, [Domain.self],
      Gc stats, hash-ordered iteration) reachable from a parallel region.
    - P003: blocking operation (captured locks, [Condition.wait],
      [Unix.sleep*], raw [Pool.submit] re-entry) reachable from a region.
    - P004: [Domain.*] / DLS use outside [lib/par] and [lib/obs].
    - X001: a may-raising value is exported from a [lib/] [.mli] whose
      doc comment carries no [@raise] tag.
    - R001: a resource is acquired but never released in the binding
      (channels, [Unix.openfile], [Pool.create], [Mutex.lock]).
    - R002: the code between an acquire and its unprotected release may
      raise (per the {!Effects} summaries), leaking on that path.
    - R003: [Obs.enable] without a balanced, protected [Obs.disable].

    The U rules are the dimensional-analysis pass ({!Units},
    {!Units_rules}); the P rules are the interprocedural parallel-safety
    pass ({!Callgraph}, {!Par_rules}); the X/R rules are the
    exception-flow and resource-lifecycle pass ({!Effects},
    {!Resource_rules}). *)

type t =
  | E001
  | E002
  | E003
  | E004
  | E005
  | E006
  | E007
  | U001
  | U002
  | U003
  | P001
  | P002
  | P003
  | P004
  | X001
  | R001
  | R002
  | R003

val all : t list
(** Every rule, in catalogue order. *)

val units : t list
(** The dimensional-analysis family ([U001]-[U003]); the [\[@units\]]
    harvest runs only when one of them is enabled. *)

val par : t list
(** The parallel-safety family ([P001]-[P004]). *)

val effects : t list
(** The exception-flow / resource-lifecycle family ([X001], [R001]-
    [R003]).  The declaration table is built only when a P or X/R rule
    is enabled, the effect fixpoint only for the latter. *)

val id : t -> string
(** ["E001"] ... ["P004"]. *)

val of_id : string -> t option
(** Case-insensitive inverse of [id]; [None] on unknown ids. *)

val describe : t -> string
(** One-line human description, used by [--list-rules] and docs. *)

val compare_rule : t -> t -> int
(** Total order by rule id (typed; keeps the linter E001-clean). *)
