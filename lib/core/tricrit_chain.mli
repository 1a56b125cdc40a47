(** TRI-CRIT on a linear chain mapped to one processor (Section III).

    This is the setting of the paper's sharpest negative and positive
    results: the problem is {e NP-hard already here} (choosing the
    subset of re-executed tasks has knapsack structure), yet the
    optimal strategy has a clean shape — {e "first slow the execution
    of all tasks equally, then choose the tasks to be re-executed"}.

    Concretely: once the re-executed subset [S] is fixed, the optimal
    speeds are a waterfilling — every execution of every task runs at a
    common speed [f_c], clamped from below by the per-task reliability
    floor ([f_rel] for single execution, the equal-speed re-execution
    floor {!Rel.min_reexec_speed} for tasks in [S]).  This module
    implements that characterisation, an exact exponential search over
    [S] for small chains, and the greedy subset selection used on long
    chains. *)

type solution = {
  schedule : Schedule.t;
  energy : (float[@units "energy"]);
  reexecuted : bool array;  (** the chosen subset [S] *)
}

val waterfill :
  eff_weights:(float[@units "work"]) array ->
  floors:(float[@units "freq"]) array ->
  fmax:(float[@units "freq"]) ->
  deadline:(float[@units "time"]) ->
  (float[@units "freq"]) array option
(** The "slow everything equally" step: minimise [Σ Wᵢ·fᵢ²] subject to
    [Σ Wᵢ/fᵢ ≤ D] and [floorᵢ ≤ fᵢ ≤ fmax].  The optimum sets
    [fᵢ = max(f_c, floorᵢ)] for a common level [f_c] (KKT); [f_c] is
    found by bisection on the total-time curve.  [None] when even
    all-[fmax] misses [D].

    @raise Invalid_argument if an argument violates a documented precondition. *)

val evaluate_subset :
  rel:Rel.params ->
  deadline:(float[@units "time"]) ->
  Mapping.t ->
  subset:bool array ->
  solution option
(** Optimal schedule given the re-execution subset: effective weight
    [2wᵢ] and floor [max(fmin, min_reexec_speed)] for tasks in the
    subset, weight [wᵢ] and floor [max(fmin, f_rel)] otherwise, then
    {!waterfill}.  [None] if infeasible (deadline too tight for this
    subset, or a task in the subset cannot meet the reliability
    constraint even at [fmax]).

    @raise Invalid_argument if the mapping is not a single-processor chain. *)

val solve_exact :
  rel:Rel.params -> deadline:(float[@units "time"]) -> Mapping.t -> solution option
(** Exhaustive minimum over all [2ⁿ] subsets ({!Subset_search.exhaustive}).
    @raise Invalid_argument when the chain is longer than 20 tasks. *)

val solve_greedy :
  rel:Rel.params -> deadline:(float[@units "time"]) -> Mapping.t -> solution option
(** Greedy subset construction ({!Subset_search.descent}): starting
    from [S = ∅], repeatedly add (or drop) the task whose toggle
    decreases energy the most, until a local minimum.  Polynomial ([O(n²)] waterfills) and, in the
    experiments, within a fraction of a percent of {!solve_exact}.

    @raise Invalid_argument if the mapping is not a single-processor chain. *)

val no_reexecution :
  rel:Rel.params -> deadline:(float[@units "time"]) -> Mapping.t -> solution option
(** The BI-CRIT-with-floor baseline ([S = ∅]): every task once, at
    least at [f_rel].  The gap to {!solve_greedy} is the energy that
    re-execution reclaims (experiment E6).

    @raise Invalid_argument if the mapping is not a single-processor chain. *)

val solve_dp :
  rel:Rel.params ->
  deadline:(float[@units "time"]) ->
  Mapping.t ->
  solution option
(** Pseudo-polynomial knapsack DP over the chain's slack budget — the
    algorithmic counterpart of the NP-hardness proof's structure.  In
    the loose-deadline regime every execution sits on its reliability
    floor, so choosing the re-executed subset is exactly a knapsack:
    item cost [2wᵢ/f_loᵢ − wᵢ/f_rel] (extra chain time), item value
    [wᵢ(f_rel² − 2f_loᵢ²)] (energy saved), budget [D − Σ wᵢ/f_rel].
    The DP discretises the budget into 512 slices,
    rounding item costs {e up} so the selected subset is always
    feasible, and finishes with the exact waterfilling on the selected
    subset.  Outside the loose regime it is a heuristic (the greedy and
    exact solvers remain the references).

    @raise Invalid_argument if the mapping is not a single-processor chain. *)
