(** The combinatorial half of TRI-CRIT: choose one option per task.

    Once every task's option is fixed — run once or re-execute, and
    with a mirror processor also replicate — what is left is a convex
    program or an LP that the caller's [evaluate] solves.  This module
    is the search over those option vectors: an exhaustive one for
    exact answers on small instances, and a best-improvement descent
    for long ones.  A subset of re-executed tasks is the menu
    [[|false; true|]].

    Both searches work on one vector of [Array.length vary] choices.
    It starts with [menu.(0)] at every position; only the positions
    where [vary] is [true] ever change.  [evaluate] receives that
    vector itself and must copy it to keep it, since the search goes
    on mutating it; [None] marks an infeasible vector.  Of two answers
    of equal [energy], the one evaluated first is kept. *)

val exhaustive :
  menu:'c array ->
  vary:bool array ->
  bound:('c array -> int -> (float[@units "energy"])) ->
  evaluate:('c array -> 'a option) ->
  energy:('a -> (float[@units "energy"])) ->
  'a option
(** The minimum-energy answer over all [|menu|^k] vectors ([k] varying
    positions), [None] if none is feasible.  Vectors are evaluated
    depth first: the lowest varying position is outermost, and each
    position runs through [menu] in order.  The caller bounds [k].

    The search prunes by [bound].  Before it enters a node of the
    search tree that still has a varying position to decide, it calls
    [bound v d]: positions below [d] of [v] are decided for the whole
    subtree (positions from [d] up hold stale values and must be
    ignored), and the result must be a lower bound on the energy of
    every feasible vector of that subtree, or [infinity] when none is
    feasible.  The subtree is skipped when the bound is at least
    [e + 1e-9·|e|], where [e] is the incumbent's energy ([infinity]
    while there is none).  A valid bound therefore skips only vectors
    that cannot beat, or tie with, the incumbent, so the answer is the
    plain enumeration's, first of ties included; the margin keeps a
    bound a rounding error too high from cutting off a better vector.
    Leaves are never bounded.  [fun _ _ -> neg_infinity] prunes
    nothing: the search is then the plain enumeration.

    @raise Invalid_argument if [menu] is empty. *)

val descent :
  menu:'c array ->
  vary:bool array ->
  evaluate:('c array -> 'a option) ->
  energy:('a -> (float[@units "energy"])) ->
  'a option
(** Best-improvement local search from the all-[menu.(0)] vector.
    Each round evaluates every single move — one varying position set
    to another menu entry, positions in increasing order, entries in
    menu order — and commits the move of least energy (the first on
    ties) when it beats the current answer by more than [1e-12], then
    re-evaluates the committed vector.  It stops at a vector that no
    single move improves by that margin.  [None] if the start vector
    is infeasible.

    @raise Invalid_argument if [menu] is empty. *)
