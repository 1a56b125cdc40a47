(** Energy/deadline trade-off exploration.

    BI-CRIT and TRI-CRIT are constrained formulations of an underlying
    multi-objective problem; sweeping the deadline exposes the Pareto
    front the paper's introduction alludes to ("faster speeds allow for
    a faster execution, but ... much higher power consumption").  Used
    by the examples and by EXPERIMENTS.md narrative figures. *)

type point = {
  deadline : (float[@units "time"]);
  energy : (float[@units "energy"]);
  n_reexecuted : int;  (** 0 for BI-CRIT sweeps *)
}

val bicrit_front :
  ?pool:Es_par.Pool.t ->
  fmin:(float[@units "freq"]) ->
  fmax:(float[@units "freq"]) ->
  deadlines:(float[@units "time"]) list ->
  Mapping.t ->
  point list
(** CONTINUOUS BI-CRIT optimum per deadline; infeasible deadlines are
    skipped.  With [?pool], deadlines are solved on the pool's worker
    domains; the front is identical either way.

    @raise Invalid_argument on a malformed task graph (nonpositive weight, out-of-range or self-loop edge, or cycle). *)

val bicrit_vdd_front :
  ?pool:Es_par.Pool.t ->
  ?warm:bool ->
  levels:(float[@units "freq"]) array ->
  deadlines:(float[@units "time"]) list ->
  Mapping.t ->
  point list
(** VDD-HOPPING BI-CRIT optimum (the Section-IV LP) per deadline,
    in the order of [deadlines], re-optimising each LP from another
    deadline's basis via {!Bicrit_vdd.energy_sweep}.  Warm chaining
    happens inside fixed 25-deadline blocks, each owning one solver
    that re-solves its deadlines from the loosest to the tightest, the
    first from {!Bicrit_vdd.crash_basis}.  The partition depends only
    on [deadlines], so the front is identical point-for-point across
    pool sizes, and within 1e-9 of [~warm:false] (independent solves,
    each from {!Bicrit_vdd.crash_basis}) — the warm-start invariance
    suite pins exactly that.  [?pool] parallelises over blocks.

    @raise Failure if an internal iteration or node budget is exhausted (e.g. the simplex pivot limit).
    @raise Invalid_argument on a malformed task graph (nonpositive weight, out-of-range or self-loop edge, or cycle). *)

val tricrit_front :
  ?pool:Es_par.Pool.t ->
  rel:Rel.params ->
  deadlines:(float[@units "time"]) list ->
  Mapping.t ->
  point list
(** Best-of-two-heuristics TRI-CRIT energy per deadline.  [?pool] as
    in {!bicrit_front}.

    @raise Invalid_argument on a schedule whose executions disagree with the mapping (length mismatch or empty execution list). *)

val dominates : point -> point -> bool
(** [dominates a b] when [a] is no worse on both axes and better on
    one. *)

val is_front : point list -> bool
(** Checks mutual non-domination — the monotonicity test used by the
    property suite (energy must not increase when the deadline
    loosens). *)
