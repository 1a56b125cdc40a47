(** Monte-Carlo fault-injection simulator.

    The paper's reliability analysis (Eq. 1) is purely analytic; this
    simulator validates it empirically (experiment E10) and lets the
    examples show re-execution actually absorbing faults.  A run
    replays a {!Schedule.t} task by task: each execution attempt fails
    with the probability that Eq. (1) assigns to it
    ([ε = Σ rate(fₖ)·tₖ] over its constant-speed parts, clamped to
    [\[0,1\]]); a re-executed task falls back to its second attempt.

    Two timelines are reported:
    - the {e worst-case} timeline of the paper's objective (every
      attempt always runs, which is how energy is accounted), and
    - the {e realised} timeline, where the second attempt only runs if
      the first failed — showing the actual-energy savings the
      worst-case accounting gives up. *)

type run = {
  success : bool;  (** every task completed within its attempts *)
  faults : int;  (** number of failed attempts *)
  realised_makespan : float;
  realised_energy : float;
}

val run : Es_util.Rng.t -> rel:Rel.params -> Schedule.t -> run
(** Simulate one execution of the schedule.
    @raise Invalid_argument if some task has no execution attempts —
    such a schedule is malformed, not merely unlucky. *)

type report = {
  trials : int;
  success_rate : float;  (** fraction of runs with [success] *)
  task_failure_rate : float array;
      (** per-task empirical probability that the task (after
          re-execution, if any) failed — to compare with the analytic
          [ε] / [ε₁·ε₂] *)
  mean_faults : float;
  mean_realised_makespan : float;
  max_realised_makespan : float;
  mean_realised_energy : float;
  worst_case_makespan : float;  (** analytic, from {!Schedule.makespan} *)
  worst_case_energy : float;  (** analytic, from {!Schedule.energy} *)
}

val monte_carlo_par :
  ?pool:Es_par.Pool.t ->
  Es_util.Rng.t ->
  rel:Rel.params ->
  trials:int ->
  Schedule.t ->
  report
(** [trials] independent runs, partitioned over 16 sub-simulations
    (fewer if [trials < 16]), each with its own stream derived from
    the argument generator by {!Es_par.Par.map_seeded} — split up
    front, left to right — and run as one pool task per replica.  The
    partial tallies are merged in replica order, so the report depends
    only on [(rng, trials)], never on [?pool] or scheduling: passing a
    pool changes wall-clock time, not results.
    @raise Invalid_argument on [trials <= 0]. *)

val analytic_task_failure : rel:Rel.params -> Schedule.t -> Dag.task -> float
(** The failure probability Eq. (1) assigns to the task under this
    schedule (product over attempts) — the quantity
    [task_failure_rate] estimates. *)
