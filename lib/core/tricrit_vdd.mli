(** TRI-CRIT under the VDD-HOPPING model (Section IV of the paper).

    The paper shows that adding the reliability constraint flips
    VDD-HOPPING BI-CRIT from P to NP-complete: the combinatorial part
    is {e which tasks to re-execute}.  The structure we exploit — and
    the reason the subproblem stays tractable — is that once the
    re-execution subset [S] {e and a per-execution failure budget} are
    fixed, everything is linear again:

    - work conservation [Σₖ fₖ·αₑₖ = wᵢ] per execution,
    - precedence/deadline in start times and total task times,
    - and crucially the reliability constraint itself, because the
      failure probability of a hopped execution is
      [Σₖ rate(fₖ)·αₑₖ] — {e linear in the time shares} (see
      {!Rel.vdd_failure}).

    For a re-executed task the exact constraint is a product
    [ε₁·ε₂ ≤ ε_target]; we linearise it by splitting the budget
    equally ([εₑ ≤ √ε_target] per attempt), which is the natural
    symmetric choice and an upper-bounding restriction (any feasible
    point of the restricted LP is feasible for the true problem).  It
    is a restriction, not the problem: an uneven split can meet the
    product at lower energy ({!refine_splits} finds such splits), so
    no answer of this module is optimal for the true constraint.

    That LP is {!Bicrit_vdd}'s, given one failure budget per
    execution ({!Bicrit_vdd.build}); this module sets the budgets.

    Solvers: for small instances, branch and bound over the subsets
    ({!Subset_search}), bounded and guided by an LP relaxation and
    closed by a subset LP wherever the relaxation is integral; and the
    paper's adaptation of the CONTINUOUS heuristics (take the
    best-of-two continuous subset, then let the LP mix speeds). *)

type solution = {
  schedule : Schedule.t;
  energy : (float[@units "energy"]);
  reexecuted : bool array;
}

val solve_subset :
  rel:Rel.params ->
  deadline:(float[@units "time"]) ->
  levels:(float[@units "freq"]) array ->
  Mapping.t ->
  subset:bool array ->
  solution option
(** The fixed-subset LP described above, solved two-phase (no crash
    basis: a slowest-level start would violate the reliability rows).
    Its reliability rows are scaled by powers of two
    ({!Bicrit_vdd.build}), so failure rates of [1e-8] and below solve
    as reliably as [O(1)] ones.  [None] if infeasible, without
    building the LP when even the fastest level misses some
    execution's budget.

    @raise Failure if an internal iteration or node budget is exhausted (e.g. the simplex pivot limit).
    @raise Invalid_argument if an argument violates a documented precondition. *)

val solve_exact :
  rel:Rel.params ->
  deadline:(float[@units "time"]) ->
  levels:(float[@units "freq"]) array ->
  Mapping.t ->
  solution option
(** Minimum over all [2ⁿ] subsets at the even split (not under the
    product constraint; see above): {!solve_subset}'s answer for the
    subset the plain enumeration ({!Subset_search.exhaustive}) would
    return — the same energy bits, subset and schedule, first of ties
    included but for the exceptions {!Subset_search.branch_and_bound}
    states — or [None] when no subset is feasible.  Size guard:
    [n <= 12].

    The search is {!Subset_search.branch_and_bound}, driven by one LP
    relaxation per request, stated by {!Bicrit_vdd.build} with every
    task's choice open (a weight [λᵢ ∈ [0, 1]] between running once
    within [t] and twice within [√t] per attempt).  A node fixes its
    decided tasks' weights at 0 or 1 through right-hand sides only
    ({!Bicrit_vdd.with_choices}), so the dual simplex re-solves it
    from its parent's optimal basis; the root starts from
    {!Bicrit_vdd.crash}.  The relaxation's optimum bounds every
    completion from below; the bound is {!Bicrit_vdd.dual_bound} of
    the returned duals, a weak-duality value that an inexact solve can
    only lower (rounding aside).  An infeasible relaxation prunes its
    subtree.  Otherwise the node splits on the open task whose [λᵢ] is
    the most fractional (the largest [min(λᵢ, 1 − λᵢ)], the lowest
    task on ties), the side [λᵢ] rounds to first; and when every open
    [λᵢ] lies within [1e-9] of 0 or 1 — at a leaf, where none is
    open, too — the relaxation's optimum is a point of the rounded
    subset's LP, which {!solve_subset} then solves once for the whole
    subtree.  A subtree is skipped when its bound reaches the
    incumbent plus [1e-9] of it, which a bound a rounding error high
    cannot do to a subtree holding a better subset.  A relaxation
    solve that raises bounds nothing: its node is
    {!Subset_search.no_bound}'s, which splits the lowest open task, or
    at a leaf solves its subset (counted under
    ["tricrit_vdd_bound_failures"], the relaxation solves under
    ["tricrit_vdd_bounds"], the subset LPs under
    ["tricrit_vdd_subsets"]).

    @raise Failure if a subset LP exhausts the simplex pivot limit.
    @raise Invalid_argument above the guard. *)

val solve_heuristic :
  rel:Rel.params ->
  deadline:(float[@units "time"]) ->
  levels:(float[@units "freq"]) array ->
  Mapping.t ->
  solution option
(** The paper's CONTINUOUS→VDD-HOPPING bridge: run
    {!Heuristics.best_of} under the continuous model spanning the
    level range, keep its re-execution subset, and re-optimise the
    speed mixes with the LP.  Falls back to the empty subset when the
    continuous heuristic fails.

    @raise Failure if an internal iteration or node budget is exhausted (e.g. the simplex pivot limit).
    @raise Invalid_argument if an argument violates a documented precondition. *)

val refine_splits :
  rel:Rel.params ->
  deadline:(float[@units "time"]) ->
  levels:(float[@units "freq"]) array ->
  Mapping.t ->
  solution ->
  solution
(** Coordinate descent over the per-task budget split: instead of the
    symmetric [√ε_target] per attempt, attempt budgets
    [ε_target^θᵢ / ε_target^{1−θᵢ}] with [θᵢ] optimised one task at a
    time by golden search, in one sweep over the re-executed tasks.
    Each golden-section probe is one LP, and so is the solve at the
    abscissa the search returns, which is committed when it lowers the
    energy.  Never returns a worse solution than its input.  This
    closes part of the gap the symmetric linearisation leaves against
    the true product constraint.

    @raise Failure if an internal iteration or node budget is exhausted (e.g. the simplex pivot limit).
    @raise Invalid_argument if an argument violates a documented precondition. *)
