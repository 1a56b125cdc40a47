(** Critical-path list scheduling — the mapping stage.

    The paper assumes the mapping is given, and suggests obtaining it
    by coupling the energy heuristics "with classical list-scheduling
    heuristics" (Sections II and V); its future-work section asks how
    much the choice of the list-scheduling priority affects the final
    energy.  This module provides that stage: a greedy list scheduler
    on [p] identical processors (durations taken at reference speed 1,
    i.e. proportional to weights) with interchangeable priority rules,
    reproduced in experiment E11. *)

type priority =
  | Bottom_level
      (** critical-path priority: longest weight-path to a sink,
          including the task — the classical choice the authors used *)
  | Top_level  (** longest path from a source; breadth-first flavour *)
  | Heaviest_first  (** largest weight first among ready tasks *)
  | Lightest_first  (** smallest weight first (an intentionally poor rule) *)
  | Max_out_degree  (** most successors first *)

val bottom_levels : Dag.t -> float array
(** Longest weight-path from each task to a sink (inclusive):
    {!Dag.latest_start} at the weights and deadline 0, negated. *)

val top_levels : Dag.t -> float array
(** Longest weight-path from a source to each task (exclusive):
    {!Dag.earliest_start} at the weights. *)

val schedule : Dag.t -> p:int -> priority:priority -> Mapping.t
(** Greedy list scheduling: repeatedly start the highest-priority ready
    task on the processor that frees up first.  Ties break on smaller
    task id, so the result is deterministic.

    @raise Invalid_argument on an inconsistent processor count or order permutation. *)

val makespan_at_speed : Mapping.t -> f:float -> float
(** Makespan when every task runs once at speed [f] — the reference
    deadline scale: [D_min = makespan_at_speed m ~f:fmax] is the
    tightest deadline any speed assignment can meet, and experiments
    sweep [D = slack · D_min].

    @raise Invalid_argument on a malformed task graph (nonpositive weight, out-of-range or self-loop edge, or cycle). *)

val priority_name : priority -> string
val all_priorities : priority list
