(** BI-CRIT under the INCREMENTAL model and its approximation guarantee
    (Section IV of the paper).

    The INCREMENTAL model restricts speeds to the regular grid
    [fmin + i·δ].  BI-CRIT stays NP-complete (it contains DISCRETE),
    but the paper shows it is approximable within
    [(1 + δ/fmin)²·(1 + 1/K)²] in time polynomial in the instance and
    in [K]: solve the CONTINUOUS relaxation to accuracy [(1 + 1/K)]
    and round every speed up to the next grid point — rounding
    multiplies each speed by at most [(1 + δ/fmin)], hence the energy
    by its square, and keeps the schedule feasible because durations
    only shrink.

    Our continuous solver is numerically near-exact, so the measured
    ratio in experiment E4 is compared against the [(1 + δ/fmin)²]
    factor alone. *)

val approximate :
  deadline:(float[@units "time"]) ->
  fmin:(float[@units "freq"]) ->
  fmax:(float[@units "freq"]) ->
  delta:(float[@units "freq"]) ->
  Mapping.t ->
  Schedule.t option
(** {!Bicrit_discrete.round_up} on the model's {!grid}: the
    CONTINUOUS relaxation between [fmin] and the grid's top speed, and
    every speed rounded up to the next grid point.  [None] when the
    relaxation is infeasible (then the INCREMENTAL instance is too).

    @raise Invalid_argument on a schedule whose executions disagree with the mapping (length mismatch or empty execution list). *)

val bound :
  fmin:(float[@units "freq"]) ->
  delta:(float[@units "freq"]) ->
  k:int option ->
  (float[@units "dimensionless"])
(** The paper's ratio: [(1 + δ/fmin)²] times [(1 + 1/K)²] when
    [k = Some K] (accounting for an approximate continuous solve),
    without it when [None]. *)

val grid :
  fmin:(float[@units "freq"]) ->
  fmax:(float[@units "freq"]) ->
  delta:(float[@units "freq"]) ->
  (float[@units "freq"]) array
(** The admissible speed set of the model (exposed for reuse by the
    DISCRETE solvers in experiments).

    @raise Invalid_argument unless [delta > 0]. *)
