(** TRI-CRIT heuristics for general DAGs under the CONTINUOUS model
    (Section III of the paper).

    The paper reports two complementary heuristic families, one derived
    from the linear-chain strategy ({e slow everything equally, then
    choose re-executions}) and one from the fork strategy ({e prefer
    highly-parallelizable tasks when allocating re-execution slots}),
    and observes that taking the best of the two wins across all
    instance classes.  This module implements both families and the
    best-of combiner; experiment E8 reproduces the complementarity
    claim.

    Both families share the same evaluation primitive: once the
    re-executed subset [S] is fixed, the optimal continuous speeds
    solve the convex program of {!Bicrit_continuous.solve_general} over
    the subset's {!Rel.choices}: effective weight [2wᵢ] and reliability
    floor {!Rel.min_reexec_speed} for tasks in [S], and weight [wᵢ]
    with floor [f_rel] otherwise. *)

type solution = {
  schedule : Schedule.t;
  energy : (float[@units "energy"]);
  reexecuted : bool array;
}

val evaluate_subset :
  rel:Rel.params ->
  deadline:(float[@units "time"]) ->
  Mapping.t ->
  subset:bool array ->
  solution option
(** Optimal speeds for a fixed re-execution subset (one
    {!Bicrit_continuous.solve_general}, at the barrier's one stopping
    rule).  [None] when the subset does not fit the deadline or a task
    cannot meet reliability.

    @raise Invalid_argument on a schedule whose executions disagree with the mapping (length mismatch or empty execution list). *)

val baseline :
  rel:Rel.params -> deadline:(float[@units "time"]) -> Mapping.t -> solution option
(** No re-execution: BI-CRIT with a global [f_rel] floor.

    @raise Invalid_argument on a schedule whose executions disagree with the mapping (length mismatch or empty execution list). *)

val chain_oriented :
  rel:Rel.params -> deadline:(float[@units "time"]) -> Mapping.t -> solution option
(** Family A.  Rank tasks by the optimistic energy gain of
    re-execution ([wᵢfᵢ² − 2wᵢf_loᵢ²] at the baseline speeds), then
    search prefix sizes of that ranking (doubling scan plus local
    refinement, one subset evaluation per probe) and keep the best
    feasible subset.  Mirrors the chain strategy: re-execution is paid
    for by uniformly slowing the whole schedule.

    @raise Invalid_argument if a root-bracketing step finds no sign change (degenerate reliability or speed bounds). *)

val parallel_oriented :
  rel:Rel.params -> deadline:(float[@units "time"]) -> Mapping.t -> solution option
(** Family B.  Compute each task's float (slack) in the deadline-[D]
    schedule at speed [f_rel]; greedily re-execute tasks whose slack
    absorbs the extra execution time without moving the critical path,
    most-slack first; one final subset evaluation optimises the
    speeds.  Mirrors the fork strategy: re-executions go where
    parallelism makes them free.

    @raise Invalid_argument if a root-bracketing step finds no sign change (degenerate reliability or speed bounds). *)

type winner = Chain_oriented | Parallel_oriented | Baseline_only

val best_of :
  rel:Rel.params ->
  deadline:(float[@units "time"]) ->
  Mapping.t ->
  (solution * winner) option
(** The paper's headline combination: run both families (and the
    baseline) and keep the cheapest feasible schedule.  The three
    share one memo of {!evaluate_subset}: each subset is solved once
    per call, the baseline included.

    @raise Invalid_argument on a schedule whose executions disagree with the mapping (length mismatch or empty execution list). *)

val winner_name : winner -> string
(** ["chain-oriented"], ["parallel-oriented"] or ["baseline"] — for
    reports. *)

val local_search :
  rel:Rel.params ->
  deadline:(float[@units "time"]) ->
  Mapping.t ->
  solution ->
  solution
(** Single-task toggle descent seeded from an existing solution: in
    each of up to two sweeps, try flipping the re-execution bit of up
    to 20 tasks (ranked by the saving of their {!Rel.knapsack_item})
    and keep the best improvement; the winning probe's solution is kept
    as it is, so each subset is solved once per sweep.  Never returns a
    worse solution.  Closes most of the gap the prefix structure of
    family A leaves on irregular DAGs (experiment E13).

    @raise Invalid_argument if a root-bracketing step finds no sign change (degenerate reliability or speed bounds). *)
