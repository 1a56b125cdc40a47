(** BI-CRIT under the CONTINUOUS model (Section III of the paper).

    Minimise [E = Σ wᵢ·fᵢ²] subject to the deadline [D], speeds free in
    [\[fmin, fmax\]], mapping given.  The paper provides closed forms
    for special structures — chains, forks (the theorem quoted in
    Section III) and series-parallel graphs — and reduces general DAGs
    to a geometric program; here the geometric program is solved by the
    primal-dual interior-point method of {!Es_numopt.Barrier} on the
    equivalent convex program over start times and durations.

    {!solve_general} is the workhorse shared with the TRI-CRIT
    heuristics: it accepts per-task {e effective} weights and speed
    bounds, which is exactly what re-execution decisions and
    reliability floors induce. *)

type result = {
  speeds : (float[@units "freq"]) array;  (** optimal speed per task *)
  energy : (float[@units "energy"]);  (** [Σ wᵢ·fᵢ²] *)
}

val chain :
  weights:(float[@units "work"]) array ->
  deadline:(float[@units "time"]) ->
  fmin:(float[@units "freq"]) ->
  fmax:(float[@units "freq"]) ->
  result option
(** Closed form for a linear chain on one processor: the unique KKT
    point runs every task at the common speed [Σw/D] (clamped to
    [fmin] from below).  [None] when even [fmax] misses the deadline. *)

val fork_speeds :
  root:(float[@units "work"]) ->
  children:(float[@units "work"]) array ->
  deadline:(float[@units "time"]) ->
  fmax:(float[@units "freq"]) ->
  result option
(** The paper's fork theorem.  With [W₃ = (Σ wᵢ³)^{1/3}]:
    [f₀ = (W₃ + w₀)/D] for the source and [fᵢ = f₀·wᵢ/W₃] for the
    children; if [f₀ > fmax] the source runs at [fmax] and the children
    at [wᵢ/(D − w₀/fmax)]; [None] when any child then still exceeds
    [fmax].  The returned speeds array is [\[|f₀; f₁; …; fₙ|\]]. *)

val fork_energy :
  root:(float[@units "work"]) ->
  children:(float[@units "work"]) array ->
  deadline:(float[@units "time"]) ->
  (float[@units "energy"])
(** The closed-form optimal energy
    [((Σ wᵢ³)^{1/3} + w₀)³ / D²] (valid when no speed is clamped). *)

val sp_equivalent_weight : Sp.t -> (float[@units "work"])
(** The SP recursion behind the closed forms: series composition adds
    equivalent weights, parallel composition combines them as
    [(W_A³ + W_B³)^{1/3}].  The optimal energy of an SP graph (each
    branch on its own processor, no speed bound binding) is
    [W_eq³/D²]. *)

val sp_speeds : Sp.t -> deadline:(float[@units "time"]) -> result
(** Closed-form optimal speeds for an SP graph, leaf order matching
    {!Sp.to_dag}: the root receives the full window [D], series nodes
    split their window proportionally to equivalent weights, parallel
    nodes share it.  Assumes no speed bound binds (the experiment
    checks this against {!solve}). *)

val solve_general :
  ?eff_weights:(float[@units "work"]) array ->
  ?lo:(float[@units "freq"]) array ->
  ?hi:(float[@units "freq"]) array ->
  deadline:(float[@units "time"]) ->
  Mapping.t ->
  result option
(** Interior-point solve of the convex program over the mapping's
    constraint DAG: variables are durations [dᵢ] and start times [sᵢ],
    objective [Σ Wᵢ³/dᵢ²] with [Wᵢ] the effective weight (default: the
    task weight; pass [2wᵢ] to model an equal-speed re-execution),
    subject to precedence, deadline and per-task speed bounds [lo/hi]
    (defaults: none / ∞ — pass the model's [fmin]/[fmax]).

    Only the rows the others do not imply are stated: a precedence row
    [sᵢ + dᵢ ≤ sⱼ] per edge of the constraint DAG's transitive
    reduction, a deadline row [sᵢ + dᵢ ≤ D] per sink, [sᵢ ≥ 0] per
    source, and the duration bounds [Wᵢ/hiᵢ ≤ dᵢ] and, where
    [loᵢ > 0], [dᵢ ≤ Wᵢ/loᵢ].

    Returns the optimal speed of each {e effective} task and the
    energy [Σ Wᵢ·fᵢ²], or [None] when running everything at [hi]
    already misses the deadline.  Accuracy is that of
    {!Es_numopt.Barrier.minimize}: the duality gap [sᵀλ] ends at most
    [10⁻⁸] (an energy) and at most [10⁻¹²] of the energy, or at the
    rounding floor where those are out of reach of double precision.

    @raise Invalid_argument on a malformed task graph (nonpositive weight, out-of-range or self-loop edge, or cycle). *)

val solve :
  deadline:(float[@units "time"]) ->
  fmin:(float[@units "freq"]) ->
  fmax:(float[@units "freq"]) ->
  Mapping.t ->
  Schedule.t option
(** BI-CRIT on a mapped DAG: {!solve_general} with uniform bounds,
    packaged as a single-execution {!Schedule.t}.

    @raise Invalid_argument on a schedule whose executions disagree with the mapping (length mismatch or empty execution list). *)

val energy_lower_bound :
  deadline:(float[@units "time"]) ->
  fmin:(float[@units "freq"]) ->
  fmax:(float[@units "freq"]) ->
  Mapping.t ->
  (float[@units "energy"])
(** The continuous optimum — a valid lower bound for every model and
    for TRI-CRIT (re-executions only add energy), used to normalise
    heuristic results in the experiments.  Falls back to
    [Σ wᵢ·fmin²] when the instance is deadline-infeasible.

    @raise Invalid_argument on a malformed task graph (nonpositive weight, out-of-range or self-loop edge, or cycle). *)
