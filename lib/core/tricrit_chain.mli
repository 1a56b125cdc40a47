(** TRI-CRIT on a linear chain mapped to one processor (Section III).

    This is the setting of the paper's sharpest negative and positive
    results: the problem is {e NP-hard already here} (choosing the
    subset of re-executed tasks has knapsack structure), yet the
    optimal strategy has a clean shape — {e "first slow the execution
    of all tasks equally, then choose the tasks to be re-executed"}.

    Concretely: once the re-executed subset [S] is fixed, the optimal
    speeds are a waterfilling — every execution of every task runs at a
    common speed [f_c], clamped from below by the per-task reliability
    floor ([f_rel] for a task run once, the equal-speed re-execution
    floor {!Rel.min_reexec_speed} for tasks in [S]).  This module
    implements that characterisation, an exact exponential search over
    [S] for small chains, and the greedy subset selection used on long
    chains.  Its {!waterfill} is the one waterfilling of the library:
    {!Replication} and {!Checkpointing} call it too. *)

type solution = {
  schedule : Schedule.t;
  energy : (float[@units "energy"]);
  reexecuted : bool array;  (** the chosen subset [S] *)
}

val waterfill :
  Rel.choice array ->
  fmax:(float[@units "freq"]) ->
  deadline:(float[@units "time"]) ->
  (float[@units "freq"]) array option
(** Optimal speeds for fixed per-task choices ({!Rel.choice}): minimise
    [Σ energyᵢ·fᵢ²] subject to [Σ timeᵢ/fᵢ ≤ D] and
    [floorᵢ ≤ fᵢ ≤ fmax].  The KKT conditions give
    [fᵢ = clamp(κᵢ·f_c, floorᵢ, fmax)] with [κᵢ = (timeᵢ/energyᵢ)^{1/3}]
    for one level [f_c], found by bisection on the total-time curve.
    With {!Rel.once} and {!Rel.twice} only, [κ = 1]: the "slow
    everything equally" step, [fᵢ = max(f_c, floorᵢ)].  A
    {!Rel.replicated} task runs a factor [2^{-1/3}] below the level.
    [None] when a floor exceeds [fmax] or even all-[fmax] misses [D].

    @raise Invalid_argument if a root-bracketing step finds no sign change (degenerate reliability or speed bounds). *)

val evaluate_subset :
  rel:Rel.params ->
  deadline:(float[@units "time"]) ->
  Mapping.t ->
  subset:bool array ->
  solution option
(** Optimal schedule given the re-execution subset: {!waterfill} of
    {!Rel.choices}.  [None] if infeasible (deadline too tight for this
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
