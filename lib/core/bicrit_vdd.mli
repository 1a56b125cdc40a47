(** BI-CRIT under the VDD-HOPPING model — the polynomial-time case
    (Section IV of the paper).

    With a finite speed set [f₁ < … < fₘ] and hopping allowed inside a
    task, the problem "minimise [Σᵢₖ fₖ³·αᵢₖ] subject to work
    conservation [Σₖ fₖ·αᵢₖ = wᵢ], precedence and the deadline" is a
    linear program in the per-speed time shares [αᵢₖ] and the start
    times — which is the paper's proof that BI-CRIT ∈ P for
    VDD-HOPPING.  We build that LP over the mapping's constraint DAG
    and solve it with our simplex, less the rows the others imply:
    shares and start times are non-negative, so a task's precedence
    row to a successor implies its deadline row, and the rows along a
    path from [i] to [j] imply the row of an edge [(i, j)].  The
    deadline row is stated at sinks only and a precedence row on the
    edges of the constraint DAG's transitive reduction only; the
    feasible set, and so the optimum, is the same.

    The classical structural result (R4) also holds here: some optimal
    solution uses at most two, consecutive, speeds per task —
    geometrically, the optimal energy/time trade-off lives on the lower
    convex hull of the points [(1/fₖ, fₖ²)].

    {b Crash basis.}  Every solve with no optimal basis to chain from
    starts the simplex from the energy-minimal schedule that ignores
    the deadline: each task at the slowest level [fmin], started as
    soon as possible.  Its basic columns are
    - [α_{i,kmin}] for every task [i] ([kmin] the slowest level);
    - for each task [j] with predecessors in the constraint DAG, the
      start time [s_j] on the precedence row [(i, j)] of the
      predecessor that sets its ASAP start — the exact argmax of
      [es_i + w_i/fmin] over the predecessors of the transitive
      reduction, whose edges have the rows, lowest index on ties;
    - the slack of every other [≤] row: the deadline rows of the
      sinks and the remaining precedence rows.

    {i Nonsingular.}  Work row [i] meets no basic column but
    [α_{i,kmin}] (coefficient [fmin > 0]), and each slack is a unit
    column; what remains pairs each chosen precedence row [(i, j)]
    with [s_j] (coefficient [−1]), whose other entries on chosen rows
    are [+1] on the rows of successors of [j].  Ordered by work rows,
    then in topological order, the basis is triangular with a nonzero
    diagonal.

    {i Dual feasible.}  Slack-basic rows price at [y = 0].  In reverse
    topological order, [s_j]'s zero cost makes its chosen row price at
    the sum of the prices of the chosen rows leaving [j], so every
    precedence row prices at [0] too.  Each work row then prices at
    [fmin²], so [α_{i,k}] has reduced cost [f_k(f_k² − fmin²) ≥ 0],
    and the nonbasic start times and slacks price at [0].

    {i Only deadlines can be violated.}  [α_{i,kmin} = w_i/fmin ≥ 0],
    each [s_j] is its ASAP start, and each unchosen precedence slack
    is the gap the ASAP schedule leaves; only a deadline slack
    [D − es_i − w_i/fmin] can be negative.  The dual simplex therefore
    starts at once, with no phase 1, and only has to repair the
    deadline rows this schedule overruns. *)

val lp :
  deadline:(float[@units "time"]) ->
  levels:(float[@units "freq"]) array ->
  Mapping.t ->
  Es_lp.Problem.t
(** The LP itself (objective and rows), exposed so that the
    verification subsystem can solve it and certify the result against
    the raw problem statement (primal/dual feasibility, complementary
    slackness) independently of this module.

    @raise Invalid_argument if [levels] is empty. *)

val crash_basis :
  levels:(float[@units "freq"]) array -> Mapping.t -> Es_lp.Revised.basis
(** The crash basis of {!lp} at any deadline (its columns do not
    depend on the deadline), for {!Es_lp.Problem.solve_sparse} on
    [Problem.to_sparse (lp ~deadline ~levels mapping)].  Every solve
    below that has no basis to chain from starts from it.

    @raise Invalid_argument if [levels] is empty. *)

val solve :
  deadline:(float[@units "time"]) ->
  levels:(float[@units "freq"]) array ->
  Mapping.t ->
  Schedule.t option
(** Solve the LP; [None] when even all-[fmax] misses the deadline
    (the LP is then infeasible).  Parts with negligible time share
    (< 1e-9 relative to the task duration) are dropped from the
    returned schedule.

    @raise Failure if an internal iteration or node budget is exhausted (e.g. the simplex pivot limit).
    @raise Invalid_argument if an argument violates a documented precondition. *)

val two_speed_support : levels:(float[@units "freq"]) array -> Schedule.t -> bool
(** Whether every task uses at most two distinct speeds, and those two
    are consecutive levels of [levels] — the property R4 asserts of an
    optimal basic solution. *)

val energy :
  deadline:(float[@units "time"]) ->
  levels:(float[@units "freq"]) array ->
  Mapping.t ->
  (float[@units "energy"]) option
(** Optimal objective value without materialising the schedule.

    @raise Failure if an internal iteration or node budget is exhausted (e.g. the simplex pivot limit).
    @raise Invalid_argument if [levels] is empty. *)

val energy_sweep :
  ?warm:bool ->
  deadlines:(float[@units "time"]) array ->
  levels:(float[@units "freq"]) array ->
  Mapping.t ->
  (float[@units "energy"]) option array
(** {!energy} at each deadline, returned in the order of [deadlines],
    re-optimising each LP from the optimal basis of the deadline
    solved before it (the LPs differ only in their right-hand side).
    The deadlines are visited from the loosest to the tightest, equal
    ones in input order: {!crash_basis} is optimal for any deadline
    past the fmin makespan, so the loosest deadline, solved first from
    it, is the nearest to it, and each later step repairs a slightly
    tighter deadline by the dual simplex.  Feasibility is monotone in
    the deadline, so the infeasible deadlines form the tight tail of
    the chain: the first of them is solved, and every later one is
    [None] without a solve.  [~warm:false] solves every deadline up
    to that one independently from {!crash_basis}, exactly as
    {!energy} does — same results, no basis reuse; the warm-invariance
    tests pin the two paths against each other point-for-point.

    @raise Failure if an internal iteration or node budget is exhausted (e.g. the simplex pivot limit).
    @raise Invalid_argument if [levels] is empty. *)

val energy_with_deadline_price :
  deadline:(float[@units "time"]) ->
  levels:(float[@units "freq"]) array ->
  Mapping.t ->
  ((float[@units "energy"]) * (float[@units "power"])) option
(** [(E*, dE*/dD)]: the optimum together with the sum of the dual
    multipliers of the deadline rows — the marginal energy a tighter
    deadline would cost, i.e. the slope of the Pareto front at [D]
    (non-positive; experiment E17 cross-checks it against finite
    differences).

    @raise Failure if an internal iteration or node budget is exhausted (e.g. the simplex pivot limit).
    @raise Invalid_argument if [levels] is empty. *)

val emulate_continuous :
  levels:(float[@units "freq"]) array ->
  speeds:(float[@units "freq"]) array ->
  Mapping.t ->
  Schedule.t option
(** The paper's bridge from CONTINUOUS results to VDD-HOPPING
    (Section IV, last paragraph): replace each continuous speed [f] by
    a mix of the two bracketing levels that preserves the execution
    time ([time-matching]: shares solve [α·f₋ + β·f₊ = w],
    [α + β = w/f]).  [None] if some speed falls outside the level
    range.

    @raise Invalid_argument on a schedule whose executions disagree with the mapping (length mismatch or empty execution list). *)

(** {1 The LP with re-executions}

    TRI-CRIT under VDD-HOPPING at a fixed re-execution subset (R11) is
    the LP above plus two things: a second execution, with its own
    shares and work row, for each re-executed task, and one linear
    reliability row per execution.  {!Tricrit_vdd} states its subset
    LPs with {!build}, and the LP relaxation of its subset search too:
    there a task's choice stays open as a weight [λᵢ ∈ [0, 1]] that
    mixes running once with running twice.

    Each reliability row is stated multiplied by [2^−e], where its
    budget is [m·2^e] with [m ∈ [0.5, 1)] ([Float.frexp]).  The
    scaling is exact, and it keeps failure rates of [1e-8] from
    meeting work rows of [O(1)] in one basis, where they drove some
    subset LPs to the simplex's pivot limit or a singular basis. *)

type reliability = {
  rates : (float[@units "prob/time"]) array;
      (** failure rate at each level, per unit of time: an execution's
          failure probability is [Σₖ rates.(k)·αₖ] *)
  budgets : (float[@units "prob"]) array array;
      (** per task, one failure budget per execution: one entry runs
          the task once, two re-execute it, and three [[|t; b₁; b₂|]]
          leave the choice open (below) *)
}

type built
(** An LP together with what reading a schedule off its solution
    needs. *)

val build :
  deadline:(float[@units "time"]) ->
  levels:(float[@units "freq"]) array ->
  reliability:reliability option ->
  Mapping.t ->
  built
(** The LP over the mapping's constraint DAG.  Columns: the time
    shares [αᵢₑₖ] by task, then execution, then level, then the start
    times [sᵢ], then the weights [λᵢ] of the open choices in task
    order.  Rows: for each task, each execution's work row
    [Σₖ fₖ·αᵢₑₖ = wᵢ] followed by its reliability row
    [Σₖ rates.(k)·αᵢₑₖ ≤ budgets.(i).(e)] (scaled as above), then,
    if the task is a sink of the constraint DAG, its deadline row
    [sᵢ + Σₑₖ αᵢₑₖ ≤ D]; the precedence rows
    [sᵢ + Σₑₖ αᵢₑₖ − sⱼ ≤ 0] come next, one per edge of the constraint
    DAG's transitive reduction ({!Dag.transitive_reduction}), in
    {!Dag.edges} order.  The rows left out are implied by these (see
    the module header).  Without [reliability] every task runs once
    with no reliability row: that is {!lp}.

    A task with three budgets [[|t; b₁; b₂|]] has an open choice: its
    first execution block is the run-once one and does the share
    [1 − λᵢ] of the task, [Σₖ fₖ·αᵢ₀ₖ = wᵢ(1 − λᵢ)] and
    [Σₖ rates.(k)·αᵢ₀ₖ ≤ t(1 − λᵢ)], and the other two are the
    re-execution's, [Σₖ fₖ·αᵢₑₖ = wᵢλᵢ] and
    [Σₖ rates.(k)·αᵢₑₖ ≤ bₑλᵢ]; all three count in its deadline and
    precedence rows.  Two rows per open choice close the LP,
    [λᵢ ≤ hᵢ] then [−λᵢ ≤ −ℓᵢ], stated at [h = 1], [ℓ = 0]
    ({!with_choices} restates them).  With every λ fixed at 0 or 1 this
    is the fixed-subset LP of the budgets [[|t|]] and [[|b₁; b₂|]], so
    its optimum is never above any subset LP's it allows.

    @raise Invalid_argument if [levels] is empty. *)

val problem : built -> Es_lp.Problem.t
(** The LP itself. *)

val crash : built -> Es_lp.Sparse.t -> Es_lp.Revised.basis
(** The crash basis of any LP {!build} states, for its sparse form
    [sp] ([Problem.to_sparse (problem b)]): every execution's slowest
    share, the start times as in {!crash_basis}, and the slack of
    every other inequality row, reliability rows and the rows of open
    choices included.  The argument of the module header carries
    over: those slacks price at [0] and every execution's work row at
    [fmin²], so a share keeps its reduced cost [f_k(f_k² − fmin²)],
    and an open choice's weight [λᵢ], nonbasic at 0, gets
    [wᵢ·fmin²] (its work-row entries are [+wᵢ] in the run-once block
    and [−wᵢ] in each re-execution block).  Only the deadline rows,
    the reliability rows the slowest level misses and a choice row
    with [ℓᵢ > 0] can start violated.

    @raise Invalid_argument if [sp] is not the sparse form of
    [problem b]. *)

val with_choices : built -> Es_lp.Sparse.t -> (int -> bool option) -> Es_lp.Sparse.t
(** [with_choices b sp c]: [sp], the sparse form of [problem b]
    ([Problem.to_sparse]), restated ({!Es_lp.Sparse.with_rhs}) with
    each open choice's rows set by [c i]: [λᵢ = 1] for [Some true]
    (re-executed), [λᵢ = 0] for [Some false] (run once), and
    [0 ≤ λᵢ ≤ 1] for [None].  Tasks without an open choice are not
    asked.

    @raise Invalid_argument if [sp] has fewer rows than [problem b]. *)

val choice_weight : built -> Es_lp.Problem.solution -> int -> (float[@units "dimensionless"])
(** [choice_weight b s i]: the weight [λᵢ] of task [i]'s open choice
    in a solution [s] of {!problem} or of one of its {!with_choices}
    restatements; [0] runs the task once, [1] re-executes it.

    @raise Invalid_argument if task [i]'s choice is not open. *)

val dual_bound :
  built -> Es_lp.Sparse.t -> Es_lp.Problem.solution -> (float[@units "energy"])
(** [dual_bound b sp s]: the weak-duality lower bound
    [b·y + Σⱼ min(0, cⱼ − aⱼᵀy)·uⱼ] on the optimum of [sp], the
    sparse form of [problem b] or one of its {!with_choices}
    restatements, from the duals [y] of a solution [s] of it.  The
    duals are first clamped to their rows' signs ([≤ 0] on [≤] rows),
    and [uⱼ] is column [j]'s implicit upper bound: a share [αᵢₑₖ] at
    most [wᵢ/fₖ], a start time at most the deadline, a weight at most
    1.  Weak duality makes it a lower bound for any [y]; at optimal
    duals it is the optimum up to rounding, and inexact duals only
    lower it. *)

val schedule : built -> Es_lp.Problem.solution -> Schedule.t
(** The schedule an optimal solution of {!problem} encodes: each
    execution runs its levels' shares, dropping those under [1e-9] of
    its duration, rescaled so that it does exactly the task's work.

    A relaxation's solution, with open choices, encodes no schedule.

    @raise Invalid_argument if the solution is not one of {!problem}. *)
