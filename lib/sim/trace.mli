(** Realised execution traces.

    {!Sim} reports aggregates; this module records one run in full —
    which attempts ran, when, and whether they failed — and renders the
    realised timeline, making the difference between the paper's
    worst-case accounting and an actual execution visible (used by the
    examples and for debugging schedules by eye). *)

type event = {
  task : Dag.task;
  attempt : int;  (** 1 or 2 *)
  start : float;
  finish : float;
  failed : bool;
}

type t = {
  events : event list;  (** ordered by start time *)
  success : bool;
  makespan : float;  (** realised *)
  energy : float;  (** realised *)
}

val run : Es_util.Rng.t -> rel:Rel.params -> Schedule.t -> t
(** Simulate one execution and record every attempt.  Start times are
    the earliest-start times of the realised durations on the
    mapping's constraint DAG (attempt 2 runs immediately after a failed
    attempt 1).

    @raise Invalid_argument on a malformed task graph (nonpositive weight, out-of-range or self-loop edge, or cycle). *)

val render : Schedule.t -> t -> string
(** ASCII chart of the realised run, 72 columns wide: one row per
    processor; attempts that failed are drawn with ['x'], successful
    second attempts with ['*']. *)
