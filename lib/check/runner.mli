(** The seeded fuzzing loop behind [escheck].

    For each relation the runner draws [trials] instances — trial [t]
    uses seed [base + t], so any failure is reproducible in isolation
    with [escheck --relation R --seed (base+t) --trials 1] — runs the
    relation, and greedily shrinks every failing instance over
    {!Gen.shrink} until no simpler candidate still fails.  Relations
    that raise are converted to failures (an oracle must judge, not
    crash), so a crashing solver is itself a reportable
    counterexample.

    The runner is pure with respect to output: it returns data and
    renders to strings ({!render}, {!to_json}); printing and exit codes
    belong to the executable. *)

type failure = {
  relation : string;
  trial : int;  (** 0-based index within the run *)
  seed : int;  (** the per-trial seed: [base_seed + trial] *)
  message : string;  (** relation verdict on the shrunk instance *)
  inst : Gen.inst;  (** minimal failing instance *)
  original : Gen.inst;  (** the instance as generated *)
  shrink_steps : int;
}

type summary = {
  name : string;
  attempted : int;
  passed : int;
  skipped : int;
  failures : failure list;  (** in trial order *)
}

type report = {
  base_seed : int;
  trials : int;  (** requested trials per relation *)
  summaries : summary list;
}

val shrink_to_minimal : Relation.t -> Gen.inst -> Gen.inst * int
(** Greedy descent over {!Gen.shrink}: repeatedly move to the first
    simplification on which the relation still fails; stop at a local
    minimum or after 400 candidate evaluations.
    Returns the final instance and the number of accepted steps. *)

val run_relation :
  ?max_failures:int -> seed:int -> trials:int -> Relation.t -> summary
(** Fuzz one relation.  Stops early once [max_failures] (default [5])
    counterexamples have been collected and shrunk.

    @raise Invalid_argument on a malformed task graph (nonpositive weight, out-of-range or self-loop edge, or cycle). *)

val run :
  ?max_failures:int -> seed:int -> trials:int -> Relation.t list -> report
(** @raise Invalid_argument on a malformed task graph (nonpositive weight, out-of-range or self-loop edge, or cycle). *)

val ok : report -> bool
(** No failures anywhere. *)

val repro : failure -> string
(** The command line that replays exactly this counterexample. *)

val render : report -> string
(** Human-readable text: a per-relation tally plus, for each
    counterexample, the verdict, the shrunk instance and the repro
    command.

    @raise Invalid_argument on a malformed task graph (nonpositive weight, out-of-range or self-loop edge, or cycle). *)

val to_json : report -> Es_obs.Obs_json.t
(** @raise Invalid_argument on a malformed task graph (nonpositive weight, out-of-range or self-loop edge, or cycle). *)
