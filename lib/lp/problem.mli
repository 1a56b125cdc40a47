(** LP builder on top of {!Sparse} and {!Revised}.

    The energy-scheduling LPs (VDD-HOPPING BI-CRIT, fixed-subset
    TRI-CRIT) are much easier to state with variable handles and
    incremental rows than with raw coefficient arrays; this module
    provides that layer.  All variables are non-negative, as in the
    paper's formulations (execution-time shares and start times). *)

type t
(** A problem under construction. *)

type var
(** Handle to a variable of a particular problem. *)

val create : unit -> t

val var : t -> ?obj:float -> unit -> var
(** [var t ~obj ()] registers a fresh non-negative variable with
    objective coefficient [obj] (default [0.]). *)

type expr = (float * var) list
(** Linear expression [Σ cᵢ·xᵢ]. *)

val le : t -> expr -> float -> unit
(** Add [expr ≤ rhs]. *)

val ge : t -> expr -> float -> unit
(** Add [expr ≥ rhs]. *)

val eq : t -> expr -> float -> unit
(** Add [expr = rhs]. *)

val upper_bound : t -> var -> float -> unit
(** Convenience for [x ≤ u]. *)

type solution
(** Optimal solution of a solved problem. *)

type outcome = Solution of solution | Infeasible | Unbounded

val to_sparse : t -> Sparse.t
(** The LP in CSC standard form, built straight from the rows' terms
    with no dense intermediate.  A variable repeated in one expression
    gets the sum of its coefficients, added in list order starting
    from [0.] exactly as {!constraints} adds them, and zero sums are
    dropped: the result equals
    [Sparse.of_rows ~obj:(objective_coeffs t) (constraints t)] field
    for field.

    @raise Invalid_argument if a row uses a variable [t] did not
    register (a handle from another, larger problem). *)

val basis : Sparse.t -> slacks:int list -> vars:var list -> Revised.basis
(** [basis sp ~slacks ~vars] names a starting basis for
    {!solve_sparse} on [sp], the {!to_sparse} form of a problem (or a
    {!Sparse.with_rhs} restatement of it): the slack or surplus
    columns of the rows [slacks] (numbered from 0 in the order the
    rows were added), then the columns of [vars], in that position
    order.  Whether the columns form a basis is checked when it is
    used, not here.

    @raise Invalid_argument if a row of [slacks] is an equality or
    does not exist. *)

val solve_sparse : ?basis:Revised.basis -> Sparse.t -> outcome * Revised.basis option
(** Minimise an already-built problem, cold or from [basis] as
    {!solve_warm} does.  A deadline sweep builds {!to_sparse} once and
    solves each deadline's {!Sparse.with_rhs} restatement here.  Counts
    under ["lp_solves"] and times under ["lp_solve"] like {!solve}.

    @raise Failure if the simplex iteration limit is exceeded. *)

val solve : t -> outcome
(** Minimise the objective: {!solve_sparse} of {!to_sparse}.

    @raise Failure if the simplex iteration limit is exceeded.
    @raise Invalid_argument as {!to_sparse}. *)

val solve_warm : ?basis:Revised.basis -> t -> outcome * Revised.basis option
(** Like {!solve}, but optionally re-optimises from a previous optimal
    basis and returns the optimal basis alongside the outcome ([Some]
    exactly when the outcome is [Solution]).  The basis is valid as a
    warm start for any problem with the same variables and rows — in a
    Pareto deadline sweep, the same LP re-stated at the next deadline.
    A stale or mismatched basis silently degrades to a cold solve (see
    {!Revised.solve_from}).

    @raise Failure if the simplex iteration limit is exceeded.
    @raise Invalid_argument as {!to_sparse}. *)

val objective : solution -> float
val value : solution -> var -> float

val duals : solution -> float array
(** Dual multipliers, one per constraint in the order the rows were
    added (see {!Revised.outcome}).  Used by the sensitivity experiment
    to read the marginal energy cost of the deadline. *)

val values : solution -> float array
(** All variable values in registration order (a fresh copy) — the raw
    primal point a certificate checker verifies. *)

val n_vars : t -> int
val n_constraints : t -> int

val objective_coeffs : t -> float array
(** Current objective vector, one entry per registered variable.  Used
    by {!Es_check.Lp_cert} to re-derive the LP independently of the
    solver. *)

val constraints : t -> Sparse.constr list
(** The rows in the order they were added, as dense rows of
    {!n_vars} entries.  Together with {!objective_coeffs} this is the
    full LP statement, so a checker can verify a solution without
    trusting the builder or the solver; the solves themselves go
    through {!to_sparse} and never densify. *)
