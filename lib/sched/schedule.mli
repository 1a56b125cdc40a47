(** Concrete schedules: speeds (and re-executions) on top of a mapping.

    A schedule assigns to each task one or two {e executions}; an
    execution is a list of [(speed, duration)] parts — a single part
    under CONTINUOUS/DISCRETE/INCREMENTAL, possibly several under
    VDD-HOPPING.  Makespan and feasibility are always evaluated in the
    paper's worst case: {e every} execution of a re-executed task
    counts in both time and energy (Section II, "the deadline D must be
    matched even in the case where all tasks that are re-executed fail
    during their first execution"). *)

type part = { speed : float; time : float }
(** A constant-speed interval; it performs [speed ·time] units of
    work. *)

type execution = part list
(** One attempt at running a task, from start to completion. *)

type t

val make : Mapping.t -> executions:execution list array -> t
(** [executions.(i)] lists the attempts for task [i] (length 1 or 2).
    @raise Invalid_argument if a task has no or more than two
    executions, a part is non-positive, or the parts of an execution
    do not add up to the task's weight (within 1e-6 relative). *)

val uniform : Mapping.t -> speed:float -> t
(** Every task executed once at [speed].

    @raise Invalid_argument on a schedule whose executions disagree with the mapping (length mismatch or empty execution list). *)

val of_speeds : ?reexecuted:bool array -> Mapping.t -> speeds:float array -> t
(** Task [i] executed at [speeds.(i)]: twice, both attempts at that
    speed, where [reexecuted.(i)], once elsewhere (everywhere when
    [reexecuted] is absent).

    @raise Invalid_argument when [speeds] or [reexecuted] does not have
    one entry per task, or on a non-positive speed. *)

val mapping : t -> Mapping.t
val dag : t -> Dag.t

val executions : t -> Dag.task -> execution list

val reexecuted : t -> Dag.task -> bool

val exec_time : execution -> float
(** Total duration of one execution. *)

val exec_work : execution -> float
val exec_energy : execution -> float
(** [Σ f²·(f·t)] = [Σ f³·t] over the parts. *)

val duration : t -> Dag.task -> float
(** Worst-case time charged to the task: the sum over all its
    executions. *)

val durations : t -> float array

val energy : t -> float
(** Total energy, both executions always counted. *)

val task_energy : t -> Dag.task -> float

val makespan : t -> float
(** Worst-case makespan: longest path of the mapping's constraint DAG
    under {!durations}.

    @raise Invalid_argument on a malformed task graph (nonpositive weight, out-of-range or self-loop edge, or cycle). *)

val start_times : t -> float array
(** Earliest start of each task's (first) execution in the worst-case
    schedule.

    @raise Invalid_argument on a malformed task graph (nonpositive weight, out-of-range or self-loop edge, or cycle). *)

val with_execs : t -> Dag.task -> execution list -> t
(** Functional update of one task's executions.

    @raise Invalid_argument on a schedule whose executions disagree with the mapping (length mismatch or empty execution list). *)

val pp : Format.formatter -> t -> unit
