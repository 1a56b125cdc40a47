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
    point of the restricted LP is feasible for the true problem).

    That LP is {!Bicrit_vdd}'s, given one failure budget per
    execution ({!Bicrit_vdd.build}); this module sets the budgets.

    Solvers: exhaustive subset enumeration ({!Subset_search}) + LP for
    small instances, and the paper's adaptation of the CONTINUOUS
    heuristics (take the best-of-two continuous subset, then let the
    LP mix speeds). *)

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
    [None] if infeasible, without building the LP when even the
    fastest level misses some execution's budget.

    @raise Failure if an internal iteration or node budget is exhausted (e.g. the simplex pivot limit).
    @raise Invalid_argument if an argument violates a documented precondition. *)

val solve_exact :
  ?max_n:int ->
  rel:Rel.params ->
  deadline:(float[@units "time"]) ->
  levels:(float[@units "freq"]) array ->
  Mapping.t ->
  solution option
(** Minimum over all [2ⁿ] subsets ({!Subset_search.exhaustive}; default
    size guard [max_n = 12]: each subset costs one LP).
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
  ?rounds:int ->
  ?use_cache:bool ->
  rel:Rel.params ->
  deadline:(float[@units "time"]) ->
  levels:(float[@units "freq"]) array ->
  Mapping.t ->
  solution ->
  solution
(** Coordinate descent over the per-task budget split: instead of the
    symmetric [√ε_target] per attempt, attempt budgets
    [ε_target^θᵢ / ε_target^{1−θᵢ}] with [θᵢ] optimised one task at a
    time by golden search ([rounds] sweeps, default 1; each probe is
    one LP).  Never returns a worse solution than its input.  This
    closes part of the gap the symmetric linearisation leaves against
    the true product constraint.

    Probe solutions are memoised by [(task, θ)] while the committed
    splits are unchanged, so accepting a probe costs no extra LP solve
    and repeated sweeps replay cached trajectories ([use_cache = false]
    restores the uncached seed behaviour — same results, strictly more
    [lp_solves]; it exists for A/B measurement).

    @raise Failure if an internal iteration or node budget is exhausted (e.g. the simplex pivot limit).
    @raise Invalid_argument if an argument violates a documented precondition. *)
