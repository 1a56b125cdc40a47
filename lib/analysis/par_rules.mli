(** Interprocedural parallel-safety pass (rules P001-P004).

    A {e parallel region} is a function handed to an [Es_par]
    combinator ([Par.parallel_map] / [parallel_iteri] / [map_reduce] /
    [try_map] / [map_seeded]) or to the raw pool ([Pool.submit] /
    [submit_batch]) — including calls through {e derived combinators},
    top-level wrappers that forward a parameter into a region position
    (computed as a fixpoint over the {!Callgraph}).  Each region's
    closure body and everything reachable from it is checked for:

    - P001 — writes to captured mutable state ([:=], [incr]/[decr],
      mutable-field assignment, Hashtbl/Queue/Stack/Buffer mutators)
      outside [Mutex.protect]; array/bytes element writes are exempt
      (the disjoint-slot [parallel_iteri] pattern).
    - P002 — ambient nondeterminism: [Random.*], wall clocks,
      [Domain.self], Gc statistics, hash-ordered iteration over a
      captured table.
    - P003 — blocking operations: captured locks, [Condition.wait],
      [Unix.sleep*], raw [Pool.submit] re-entry.
    - P004 — (file-scoped, not region-based) [Domain.*] use outside
      the sanctioned owners lib/par and lib/obs.

    Findings are anchored at the region call site; the message carries
    the witness call chain
    ["region@file:line -> Node.fn@file:line -> Random.float@file:line"],
    so the existing per-site suppression machinery
    ([[@lint.allow "P001"]], lint.allow) applies unchanged. *)

type ctx
(** Analysis context for one eslint run: the call graph plus the
    derived-combinator fixpoint and a per-node fact cache. *)

val make_ctx : Callgraph.t -> ctx

val check_structure :
  ctx ->
  file:string ->
  report:(Rules.t -> Location.t -> string -> unit) ->
  Parsetree.structure ->
  unit
(** Run P001-P004 over one parsed implementation.  [report] receives
    the rule, the anchor location (region call site for P001-P003, the
    identifier for P004) and the full message. *)
