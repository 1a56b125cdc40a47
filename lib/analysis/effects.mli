(** May-raise effect inference over the {!Callgraph} (layer 1 of the
    exception-flow pass; {!Resource_rules} is layer 2).

    A summary is an element of the lattice

    {v  Known {} ⊑ Known {Failure} ⊑ ... ⊑ Known S ⊑ Top  v}

    read "this binding can raise at most the exceptions of S" — [Top]
    means an unknown external was reached in call position and anything
    may come out.  [infer] runs a monotone fixpoint over every node of
    the graph: a node's summary is the effect of its bound expression,
    where

    - [raise (C ...)], [failwith], [invalid_arg] and the known-partial
      stdlib catalogue (the E002 list plus channel I/O) introduce
      exceptions;
    - a [match]/[function] over constant patterns with no catch-all
      introduces [Match_failure];
    - [try ... with] narrows the body's summary — an unguarded
      catch-all clears it (including [Top]), a specific constructor
      pattern removes that constructor, guarded handlers narrow
      nothing, and the handler bodies' own effects are added back;
    - calling another node of the graph contributes that node's
      current summary (so narrowing applies to callee effects too);
    - calling an unknown external is [Top]; whitelisted pure stdlib
      names and prefixes contribute nothing;
    - applying a locally-bound name (parameter or [let]-bound closure)
      contributes nothing: closure {e bodies} are charged to the
      binding that contains them, and a parameter's effects belong to
      the caller;
    - nodes of the sanctioned owners (lib/par, lib/obs — see
      {!Callgraph.node_sanctioned}) are treated as pure: their
      raise contracts are documented manually and their internals are
      excluded, mirroring the P-pass sanctioning.

    Exceptions are identified by the {e last segment} of their
    constructor path ([Queue.Empty] and [Stack.Empty] collide on
    ["Empty"]), a deliberate trade against the untyped AST.  Soundness
    caveats (DESIGN.md §9): ambient exceptions ([Assert_failure],
    [Division_by_zero], array/string bounds) are not tracked, and an
    unknown external {e referenced} but not applied contributes
    nothing. *)

module SSet = Callgraph.SSet

type t =
  | Known of SSet.t  (** at most these exception constructors *)
  | Top  (** an unknown external was called — anything may raise *)

val pure : t
(** [Known {}]. *)

val is_pure : t -> bool

val union : t -> t -> t
(** Lattice join; [Top] absorbs. *)

val to_list : t -> string list option
(** Sorted exception names, or [None] for [Top]. *)

type env
(** The result of one fixpoint run: per-node summaries, per-node
    direct (intraprocedural) seeds, and first-raise-site locations for
    witness reconstruction. *)

val infer : Callgraph.t -> env
(** Run the fixpoint over every node of the graph. *)

val graph : env -> Callgraph.t

val summary : env -> string -> t
(** Full interprocedural summary of a node; [pure] for unknown
    names. *)

type evidence = {
  e_exn : string option;
      (** the exception, or [None] when only an unknown external is to
          blame *)
  e_hops : (string * Location.t) list;
      (** call-chain hops, ["name@file:line"]-renderable, ending at
          the introduction site *)
}

val expr_effect :
  ?mask:(Parsetree.expression -> bool) ->
  ?bound:SSet.t ->
  env ->
  file:string ->
  Parsetree.expression ->
  t * evidence option
(** Effect of an arbitrary expression in [file]'s resolution scope,
    looking callee nodes up in [env], and the first raise evidence
    inside it, both from one walk.  [mask] prunes subtrees (treated as
    pure) — {!Resource_rules} masks release calls and everything after
    them; [bound] adds names bound by enclosing patterns, such as the
    {!Callgraph.bound_names} of the whole binding (the expression's own
    binders are always included).

    The evidence is the first raising thing in reading order: a
    [raise]/[failwith]/[invalid_arg] head before its arguments, any
    other call's arguments before the call (a catalogue hit, or an
    unknown external), a [try] body before its handlers and nothing
    from a [try] that ends pure, a reference to a raising node followed
    by its {!witness} chain.  [None] when the expression is pure (or
    its impurity has no nameable source). *)

val witness : env -> string -> exn:string -> (string * Location.t) list
(** Shortest reference chain from the node to a binding whose own body
    (callee nodes treated as pure) introduces [exn], as
    [(callee, reference site); ...; (exn, raise site)].  Empty when
    the node's summary does not contain [exn] or no direct introducer
    is reachable (a [Top] cause). *)
