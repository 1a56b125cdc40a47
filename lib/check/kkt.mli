(** KKT-style optimality certification for CONTINUOUS results.

    The convex program behind BI-CRIT CONTINUOUS ([min Σ wᵢ·fᵢ²] over
    durations and start times, Section III of the paper) has an
    optimality structure that can be checked without re-solving:

    - {b feasibility}: speeds inside [\[lo, hi\]], worst-case makespan
      within the deadline;
    - {b critical-path saturation}: a task running faster than its
      lower clamp must be critical — if it had slack, slowing it would
      save energy, contradicting optimality;
    - {b common-speed intervals / waterfilling}: on a single-processor
      chain the optimum runs every unclamped task at one common speed
      [f_c] with [fᵢ = max(f_c, floorᵢ)], and either the deadline is
      exhausted or every task sits on its floor;
    - {b exchange stationarity}: no small transfer of duration between
      two tasks may strictly reduce the energy while staying feasible
      (a randomised first-order probe on general DAGs).

    Every comparison allows a relative slop of [1e-6].  These are
    necessary conditions; together with convexity of the
    program the waterfilling/chain check is also sufficient.  The
    checks deliberately recompute energy from speeds, so wrong energy
    {e accounting} (as opposed to wrong speeds) is caught too. *)

type verdict = Ok | Violation of string

val is_ok : verdict -> bool

val describe : verdict -> string

val check_waterfill :
  eff_weights:(float[@units "work"]) array ->
  floors:(float[@units "freq"]) array ->
  fmax:(float[@units "freq"]) ->
  deadline:(float[@units "time"]) ->
  speeds:(float[@units "freq"]) array ->
  verdict
(** Certify a claimed waterfilling optimum of
    [min Σ Wᵢ·fᵢ² s.t. Σ Wᵢ/fᵢ ≤ D, floorᵢ ≤ fᵢ ≤ fmax]: bounds, the
    common-level-above-floors shape, and deadline saturation unless
    every task is floor-clamped.  This is the shared oracle behind the
    BI-CRIT chain closed form and the TRI-CRIT waterfill step. *)

val check_chain :
  weights:(float[@units "work"]) array ->
  deadline:(float[@units "time"]) ->
  fmin:(float[@units "freq"]) ->
  fmax:(float[@units "freq"]) ->
  Bicrit_continuous.result ->
  verdict
(** {!check_waterfill} with uniform floors [fmin], plus energy
    accounting ([energy = Σ wᵢ·fᵢ²] recomputed from the speeds). *)

val check_general :
  deadline:(float[@units "time"]) ->
  lo:(float[@units "freq"]) array ->
  hi:(float[@units "freq"]) array ->
  Mapping.t ->
  Bicrit_continuous.result ->
  verdict
(** Certify a {!Bicrit_continuous.solve_general} result on an
    arbitrary mapped DAG: feasibility, energy accounting,
    critical-path saturation of every task above its lower clamp
    (slack at most [1e-3·deadline]), and 32 randomised
    duration-exchange probes (seed 7) that must not find a feasible
    first-order improvement.

    @raise Invalid_argument on a malformed task graph (nonpositive weight, out-of-range or self-loop edge, or cycle). *)
