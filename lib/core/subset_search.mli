(** The combinatorial half of TRI-CRIT: choose one option per task.

    Once every task's option is fixed — run once or re-execute, and
    with a mirror processor also replicate — what is left is a convex
    program or an LP that the caller's [evaluate] solves.  This module
    is the search over those option vectors: an exhaustive one and a
    branch and bound for exact answers on small instances, and a
    best-improvement descent for long ones.  A subset of re-executed
    tasks is the menu [[|false; true|]].

    The vectors have [Array.length vary] choices.  Each position
    holds [menu.(0)] unless [vary] is [true] there.  [evaluate] must
    copy a vector to keep it: {!descent} passes the one vector it goes
    on mutating.  [None] marks an infeasible vector.  Of two answers
    of equal [energy], {!exhaustive} and {!descent} keep the one
    evaluated first. *)

val exhaustive :
  menu:'c array ->
  vary:bool array ->
  evaluate:('c array -> 'a option) ->
  energy:('a -> (float[@units "energy"])) ->
  'a option
(** The minimum-energy answer over all [|menu|^k] vectors ([k] varying
    positions), [None] if none is feasible.  Vectors are evaluated
    depth first: the lowest varying position is outermost, and each
    position runs through [menu] in order.  The caller bounds [k].
    This is {!branch_and_bound} with {!no_bound} at every node.

    @raise Invalid_argument if [menu] is empty. *)

(** What the caller of {!branch_and_bound} knows of a subtree. *)
type 'c node =
  | Infeasible  (** No vector of the subtree is feasible. *)
  | Split of { bound : (float[@units "energy"]); at : int; first : int }
      (** [bound] is at most the energy of every feasible vector of
          the subtree; the search decides the open position [at],
          taking [menu.(first)] first and then the other entries in
          menu order. *)
  | Attained of { bound : (float[@units "energy"]); vector : 'c array }
      (** [bound] is at most the energy of every feasible vector of
          the subtree, and [vector], a completion of the subtree's
          decided positions, attains it. *)

val branch_and_bound :
  menu:'c array ->
  vary:bool array ->
  node:('c option array -> 'c node) ->
  evaluate:('c array -> 'a option) ->
  energy:('a -> (float[@units "energy"])) ->
  'a option
(** {!exhaustive}'s answer, found by branch and bound.

    At every node of the search tree, leaves included, the search
    calls [node p]: [p.(i)] is [Some c] where position [i] holds [c]
    throughout the subtree (every position that does not vary holds
    [Some menu.(0)]), and [None] where it is open.  The search goes on
    mutating [p].  At a leaf, where no position is open, [node] must
    answer {!Infeasible} or {!Attained}.

    The subtree is skipped when [node] answers {!Infeasible}, or when
    its bound is at least [e + 1e-9·|e|], where [e] is the incumbent's
    energy ([infinity] while there is none); the margin keeps a bound
    a rounding error too high from cutting off a better vector.
    Otherwise a {!Split} is searched as it says, and an {!Attained}
    subtree is closed by evaluating its [vector]; should that vector
    be infeasible, the subtree is split on its lowest open position
    instead, in menu order (a leaf is then infeasible).

    Of two answers of equal energy, the one whose vector comes first
    in {!exhaustive}'s order is kept.  Valid bounds therefore skip
    only vectors that cannot beat, or tie with, the incumbent, and the
    answer is {!exhaustive}'s, first of ties included, with two
    exceptions.  A subtree closed by an {!Attained} bound is not
    searched for exact ties, so a vector of it with exactly the
    attained energy that comes before [vector] is not found.  And at
    an incumbent of energy [0] the margin is [0], so a subtree whose
    bound is [0] is skipped even if it holds an earlier vector of
    energy [0].  An entry's place in the menu is that of its first
    occurrence ([=]).

    @raise Invalid_argument if [menu] is empty, or if a {!Split}
    names a position that is not open or an entry outside [menu]. *)

val no_bound : 'c option array -> 'c node
(** The node of a subtree that nothing bounds, as {!branch_and_bound}
    receives it: a {!Split} of its lowest open position, menu entries
    in order, with the bound [neg_infinity]; at a leaf, its own vector
    {!Attained} with that bound. *)

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
