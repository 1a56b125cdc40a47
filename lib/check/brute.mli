(** Independent reference optima for differential testing.

    Everything here is computed by means deliberately different from
    the production solvers — convex-hull geometry and exhaustive
    enumeration instead of simplex and branch-and-bound — so agreement
    between the two is meaningful evidence of correctness.

    The VDD-HOPPING references rest on the paper's R4 structure: the
    reachable (time-per-work, energy-per-work) trade-offs of a task
    are exactly the lower convex hull of the points [(1/fₖ, fₖ²)].
    For a single-processor chain with deadline [D] and total work [W],
    convexity (Jensen) gives the closed-form optimum [W·H(D/W)] where
    [H] is that hull — no LP involved. *)

val hull : levels:(float[@units "freq"]) array -> (float * float) array
(** Lower convex hull of [(1/fₖ, fₖ²)], sorted by increasing
    time-per-work.  The first point corresponds to [fmax], the last to
    [fmin]. *)

val energy_per_work :
  levels:(float[@units "freq"]) array -> u:float -> float option
(** [H(u)]: minimal energy per unit work when spending [u] time units
    per unit work, mixing speeds from [levels].  [None] when
    [u < 1/fmax] (infeasible even flat out); values above [1/fmin]
    clamp to running at [fmin] (the processor idles in the slack). *)

val vdd_chain_optimum :
  levels:(float[@units "freq"]) array ->
  weights:(float[@units "work"]) array ->
  deadline:(float[@units "time"]) ->
  (float[@units "energy"]) option
(** Closed-form optimal VDD-HOPPING energy of a single-processor
    chain: [W·H(D/W)].  [None] when the deadline is infeasible. *)

val discrete_optimum :
  levels:(float[@units "freq"]) array ->
  deadline:(float[@units "time"]) ->
  Mapping.t ->
  (float[@units "energy"]) option
(** Exhaustive DISCRETE optimum: try all [mⁿ] one-speed-per-task
    assignments against the mapping's constraint DAG and keep the
    cheapest deadline-feasible one.  [None] when none is feasible.
    @raise Invalid_argument when [mⁿ] exceeds 200 000 — use it only
    on tiny instances. *)
