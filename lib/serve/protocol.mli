(** The `esservd` wire protocol: newline-delimited JSON.

    One request per line in, one response per line out, in request
    order.  A request carries the payload class real users send (cf.
    the Gurobi formulation of SNIPPETS.md Snippet 2): a task set with
    weights and precedence edges, a processor budget (or an explicit
    mapping), a frequency menu (one of the paper's four speed models),
    a deadline, and optionally the TRI-CRIT reliability parameters and
    a per-request solve-time budget.

    {v
    request  := { "id"?: json,              // echoed verbatim
                  "tasks": [w, ...],        // weights, > 0
                  "edges"?: [[a, b], ...],  // precedence, default []
                  "procs"?: int,            // default 1
                  "mapping"?: [[t, ...], ...], // per-processor order;
                                            // default: list scheduling
                  "model": model,
                  "deadline": num,
                  "rel"?: { "lambda0"?: num, "sensitivity"?: num,
                            "frel"?: num }, // bounds from the model
                  "budget_s"?: num }        // per-request time budget
    model    := { "kind": "continuous", "fmin": num, "fmax": num }
              | { "kind": "discrete" | "vdd", "levels": [num, ...] }
              | { "kind": "incremental", "fmin": num, "fmax": num,
                  "delta": num }
    v}

    Responses always carry ["id"] (null when the request had none) and
    ["status"]; a solved response adds the energy, worst-case makespan,
    per-task effective speeds (weight / first-execution time, in task
    order), the engine that produced it, and the cache disposition
    ("miss", "hit" or "rescale-hit").  Malformed or rejected requests
    get ["status": "error"] with a message — the session continues;
    admission control responds ["status": "shed"]; a blown time budget
    responds ["status": "over-budget"].  *)

type instance = {
  weights : (float[@units "work"]) array;
  edges : (Dag.task * Dag.task) list;
  procs : int;
  order : Dag.task list array option;  (** explicit mapping, if given *)
  model : Speed.t;
  deadline : (float[@units "time"]);
  rel : Rel.params option;
}

type request = {
  id : Es_obs.Obs_json.t;  (** echoed verbatim; [Null] when absent *)
  inst : instance;
  budget_s : (float[@units "time"]) option;
}

type parsed = Request of request | Malformed of string

val parse_line : string -> parsed
(** Total: every parse or shape error becomes [Malformed]. *)

val dag : instance -> Dag.t
(** The task graph of the instance.

    @raise Invalid_argument on a malformed task graph (nonpositive
    weight, out-of-range or self-loop edge, or cycle). *)

val resolve_order : instance -> Dag.task list array
(** The per-processor execution orders actually used: the explicit
    ["mapping"] when given, otherwise bottom-level list scheduling of
    the task graph on [procs] processors — a deterministic function of
    the instance.

    @raise Invalid_argument on a malformed task graph (nonpositive
    weight, out-of-range or self-loop edge, or cycle) or an invalid
    mapping (not a partition, precedence violated). *)

val resolve_mapping : instance -> Mapping.t
(** [Mapping.make] over {!resolve_order}.

    @raise Invalid_argument on a malformed task graph or mapping (see
    {!resolve_order}). *)

type disposition = Cold | Hit | Rescale_hit

val disposition_name : disposition -> string
(** ["miss"], ["hit"], ["rescale-hit"]. *)

type literals = {
  energy_lit : string;
  makespan_lit : string;
  speed_lits : string array;  (** in task order, as [speeds] *)
}
(** The numbers of an answer as {!Es_obs.Obs_json.number_literal}
    renders them. *)

type solved = {
  energy : (float[@units "energy"]);
  speeds : (float[@units "freq"]) array;
      (** effective speed per task: weight / first-execution time *)
  makespan : (float[@units "time"]);
  engine : string;
  exact : bool;
  reexecuted : Dag.task list;
  literals : literals option;
      (** [energy], [makespan] and [speeds] already rendered, which
          {!render} writes as they are; only an exact cache hit
          carries them ({!Cache}), [None] renders the floats *)
}

type status =
  | Solved of solved
  | Infeasible of string  (** the deadline cannot be met *)
  | Rejected of string  (** malformed, invalid or unsupported request *)
  | Shed of string  (** admission control refused the request *)
  | Over_budget of { budget_s : (float[@units "time"]) }

type response = {
  rid : Es_obs.Obs_json.t;
  status : status;
  cache : disposition option;  (** [None] when no lookup happened *)
  self_check : bool option;
      (** sampled rescale-hit re-solve verdict; [None] = not sampled *)
}

val render : response -> string
(** One compact JSON line (no trailing newline).  A solved answer's
    [literals], when present, stand in for its numbers: the line is
    the same bytes as with [literals = None]. *)

val solved_of_schedule :
  engine:string -> exact:bool -> Schedule.t -> solved
(** Extract the response payload from a solver schedule, without
    [literals].

    @raise Invalid_argument on a malformed task graph (nonpositive
    weight, out-of-range or self-loop edge, or cycle). *)
