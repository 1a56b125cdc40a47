(** Random solver instances with shrinking.

    An {!inst} is a self-contained, reproducible test case for every
    relation in {!Relation}: a weighted DAG (stored as raw weights and
    edges so it can be shrunk structurally), a processor count, a
    deadline expressed as a slack factor over the tightest achievable
    makespan, and a speed-level grid.  The level grid is always evenly
    spaced ([fmin + i·δ]), so the same instance serves the DISCRETE,
    VDD-HOPPING and INCREMENTAL models and the CONTINUOUS interval
    [\[fmin, fmax\]].

    {!shrink} enumerates simplified candidates (bisected task sets,
    single-task removals, unit weights, collapsed level grids, round
    slack) — the fuzz runner in {!Runner} greedily re-runs a failing
    relation on them to deliver a minimal counterexample. *)

type shape = Chain | Fork | Join | Sp | Layered | General

type inst = {
  shape : shape;
  weights : (float[@units "work"]) array;
  edges : (Dag.task * Dag.task) list;
  procs : int;
  slack : (float[@units "dimensionless"]);
      (** deadline = slack × (makespan with every task at fmax) *)
  levels : (float[@units "freq"]) array;  (** even grid, ascending *)
}

val shape_name : shape -> string
val all_shapes : shape list

val dag : inst -> Dag.t
(** @raise Invalid_argument on a malformed task graph (nonpositive weight, out-of-range or self-loop edge, or cycle). *)

val mapping : inst -> Mapping.t
(** Chains map to a single processor, forks/joins/SP graphs to one
    task per processor (the closed-form settings), layered/general
    DAGs through critical-path list scheduling on [procs]
    processors.

    @raise Invalid_argument on a malformed task graph (nonpositive weight, out-of-range or self-loop edge, or cycle). *)

val fmin : inst -> (float[@units "freq"])
val fmax : inst -> (float[@units "freq"])
val delta : inst -> (float[@units "freq"])

val dmin : inst -> (float[@units "time"])
(** Makespan with every task at [fmax] — the tightest meetable
    deadline for this mapping.

    @raise Invalid_argument on a malformed task graph (nonpositive weight, out-of-range or self-loop edge, or cycle). *)

val deadline : inst -> (float[@units "time"])
(** @raise Invalid_argument on a malformed task graph (nonpositive weight, out-of-range or self-loop edge, or cycle). *)

val of_dag :
  shape:shape ->
  procs:int ->
  slack:(float[@units "dimensionless"]) ->
  levels:(float[@units "freq"]) array ->
  Dag.t ->
  inst
(** Wrap an existing DAG as an instance — lets the test suite run the
    relation oracles on hand-built or legacy test graphs. *)

val generate : ?shapes:shape list -> Es_util.Rng.t -> inst
(** Draw an instance: a shape from [shapes] (default {!all_shapes}),
    1–10 tasks with weights in [\[0.5, 3)], 1–3 processors, slack
    mostly in [\[1.05, 3)] (a few percent of draws are deliberately
    infeasible, [slack < 1], to exercise infeasibility paths), and a
    2–5 point even speed grid.

    @raise Invalid_argument on a malformed task graph (nonpositive weight, out-of-range or self-loop edge, or cycle). *)

val shrink : inst -> inst Seq.t
(** Simplification candidates, most aggressive first.  Every candidate
    is a valid instance; the caller keeps a candidate only when the
    failure it is chasing reproduces on it. *)

val pp : Format.formatter -> inst -> unit
(** @raise Invalid_argument on a malformed task graph (nonpositive weight, out-of-range or self-loop edge, or cycle). *)

val describe : inst -> string
(** @raise Invalid_argument on a malformed task graph (nonpositive weight, out-of-range or self-loop edge, or cycle). *)

val to_json : inst -> Es_obs.Obs_json.t
(** @raise Invalid_argument on a malformed task graph (nonpositive weight, out-of-range or self-loop edge, or cycle). *)
