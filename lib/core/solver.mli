(** One-call facade over the whole library.

    Downstream users mostly want "here is my mapped DAG, my speed
    model, my deadline — give me the best schedule you can".  This
    module dispatches to the right engine per speed model and
    reliability requirement, always returning a schedule the
    {!Validate} checker accepts:

    {v
    model        BI-CRIT                       TRI-CRIT
    ───────────  ────────────────────────────  ─────────────────────────────
    CONTINUOUS   convex solve (exact)          best-of heuristics (A/B)
    VDD-HOPPING  LP (exact)                    B&B at the even budget split
                                               if small, else continuous
                                               bridge + LP
    DISCRETE     B&B if small, else round-up   (not in the paper — rejected)
    INCREMENTAL  round-up approximation        (not in the paper — rejected)
    v}

    The exact/heuristic choice per cell mirrors the paper's complexity
    results: polynomial cells get exact algorithms, NP-complete cells
    get the approximation/heuristic the paper proposes (with exact
    search when the instance is small enough).  TRI-CRIT VDD-HOPPING
    is never exact: its search is optimal over the re-execution
    subsets only with each re-executed task's failure budget split
    evenly between its two attempts ({!Tricrit_vdd}), a restriction of
    the true product constraint that a better split can beat. *)

type request = {
  mapping : Mapping.t;
  model : Speed.t;
  deadline : (float[@units "time"]);
  rel : Rel.params option;  (** [Some _] switches to TRI-CRIT *)
}

type answer = {
  schedule : Schedule.t;
  energy : (float[@units "energy"]);
  exact : bool;  (** whether the answer is provably optimal *)
  engine : string;  (** human-readable engine name, for reports *)
}

val solve : request -> (answer, string) result
(** The exponential searches run in NP-complete cells up to 14 tasks
    (DISCRETE, exact) or 10 tasks (TRI-CRIT VDD-HOPPING, at the even
    split); larger instances get the approximation or heuristic.  Errors are
    human-readable: infeasible deadline, unsupported model/reliability
    combination, or inconsistent parameters (e.g. [rel] bounds
    disagreeing with the model's).

    @raise Failure if an internal iteration or node budget is exhausted (e.g. the simplex pivot limit).
    @raise Invalid_argument if an argument violates a documented precondition. *)
