(** Monte-Carlo fault-injection simulator.

    The paper's reliability analysis (Eq. 1) is purely analytic; this
    simulator validates it empirically (experiment E10) and lets the
    examples show re-execution actually absorbing faults.  Once per
    schedule it builds a table of every task's attempts: duration,
    energy and the failure probability Eq. (1) assigns
    ([ε = Σ rate(fₖ)·tₖ] over the attempt's constant-speed parts,
    clamped to [\[0,1\]]).  One replay loop runs a schedule from that
    table, task by task: a task's attempts run in order until one
    succeeds, each failing with its probability, so a re-executed task
    falls back to its second attempt.  The Monte-Carlo tally and the
    traced run both use it.

    Two timelines are reported:
    - the {e worst-case} timeline of the paper's objective (every
      attempt always runs, which is how energy is accounted), and
    - the {e realised} timeline, where the second attempt only runs if
      the first failed — showing the actual-energy savings the
      worst-case accounting gives up. *)

type report = {
  trials : int;
  success_rate : float;  (** fraction of runs in which every task completed *)
  task_failure_rate : float array;
      (** per-task empirical probability that the task (after
          re-execution, if any) failed — to compare with the analytic
          [ε] / [ε₁·ε₂] *)
  mean_faults : float;  (** failed attempts per run *)
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

(** {1 Traced runs}

    One run recorded in full — which attempts ran, when, and whether
    they failed — and its realised timeline, making the difference
    between the paper's worst-case accounting and an actual execution
    visible (used by the examples and for debugging schedules by eye). *)

type event = {
  task : Dag.task;
  attempt : int;  (** 1 or 2 *)
  start : float;
  finish : float;
  failed : bool;
}

type trace = {
  events : event list;  (** ordered by start time *)
  success : bool;  (** every task completed within its attempts *)
  makespan : float;  (** realised *)
  energy : float;  (** realised *)
}

val trace : Es_util.Rng.t -> rel:Rel.params -> Schedule.t -> trace
(** Simulate one execution and record every attempt that ran, drawing
    from the generator exactly as one Monte-Carlo trial does.  Start
    times are the earliest-start times of the realised durations on
    the mapping's constraint DAG (attempt 2 runs immediately after a
    failed attempt 1). *)

val render_trace : Schedule.t -> trace -> string
(** ASCII chart of the realised run, 72 columns wide: one row per
    processor; attempts that failed are drawn with ['x'], successful
    second attempts with ['*']. *)
