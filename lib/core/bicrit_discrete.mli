(** BI-CRIT under the DISCRETE model — the NP-complete case
    (Section IV of the paper).

    Each task runs at exactly one speed from the finite set; choosing
    the speeds to meet [D] at minimum energy is NP-complete (the paper
    reduces from 2-PARTITION; see {!Complexity}).  This module provides
    the two sides the reproduction needs:

    - an {e exact} branch-and-bound solver for small instances —
      depth-first over tasks in topological order, slowest level first,
      pruned by (a) a makespan bound with unassigned tasks at [fmax]
      and (b) an energy bound combining assigned energy with per-task
      speed floors derived from DAG slack; and
    - the {e round-up approximation}: solve the CONTINUOUS relaxation
      and round every speed to the next admissible level, which
      preserves feasibility (durations only shrink) and bounds the
      energy ratio by [max_k (f_{k+1}/f_k)²] — the scheme behind the
      paper's INCREMENTAL approximation guarantee. *)

type exact = {
  schedule : Schedule.t;
  energy : (float[@units "energy"]);
  nodes_explored : int;  (** search-tree size, reported by E5 *)
}

val solve_exact :
  deadline:(float[@units "time"]) ->
  levels:(float[@units "freq"]) array ->
  Mapping.t ->
  exact option
(** Optimal discrete speed assignment.  [None] when infeasible.
    @raise Failure when the search visits 50 000 000 nodes —
    the instance is too large for exact search. *)

val round_up :
  deadline:(float[@units "time"]) ->
  levels:(float[@units "freq"]) array ->
  Mapping.t ->
  Schedule.t option
(** Continuous relaxation + per-task round-up.  [None] when the
    relaxation is infeasible or a rounded speed exceeds the largest
    level.

    @raise Invalid_argument on a schedule whose executions disagree with the mapping (length mismatch or empty execution list). *)

val ratio_bound : levels:(float[@units "freq"]) array -> (float[@units "dimensionless"])
(** The a-priori approximation ratio of {!round_up} on instances where
    no speed is clamped: [max_k (f_{k+1}/f_k)²]. *)
