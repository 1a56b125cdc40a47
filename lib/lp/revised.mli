(** Revised simplex over sparse columns with an LU-factorised basis.

    Instead of carrying an m×n tableau, each iteration prices columns
    against [y = B⁻ᵀc_B] and computes the entering direction
    [w = B⁻¹a_j] from the {!Lu} factorisation, updated in product form
    and refactorised every [refactor_every] pivots (or earlier on a
    numerically unsafe eta).  Pricing is Dantzig (partial, with a
    rotating window, on wide problems) with a Bland fallback after
    [bland_after] iterations of a phase to escape cycling.

    The payoff is the warm start: a solve may start from any named
    basis — the previous deadline's optimum in a sweep, or a crash
    basis built from the problem's structure — and runs primal simplex
    if the basis is primal feasible, the dual simplex if it is only
    dual feasible (the common case when tightening a deadline), and a
    transparent cold start otherwise.  The dual simplex keeps its
    reduced costs up to date: one BTRAN per pivot for the pivot row,
    one product per nonbasic column shared by the ratio test and the
    update, and a fresh pricing after every refactorisation.
    Soundness does not depend on the starting basis: any nonsingular
    basis is a legal starting point, stale bases fall back to a cold
    solve, and [Lp_cert] certifies every [Optimal] independently of
    how it was reached.

    A solver {!t} lives across the solves of problems that differ only
    in their right-hand side (a deadline sweep's restatements).  It
    owns every array a pivot touches — the {!Lu} factors and eta file,
    the FTRAN/BTRAN buffers, the basic costs, the reduced costs and
    the pivot row — allocated once by {!start}; {!resolve} copies the
    new right-hand side in and re-optimises from the basis, factors,
    eta file and reduced costs the previous solve left.  Pivots
    allocate nothing on the major heap, a re-solve nothing beyond the
    result it returns, and concurrent solvers share no state. *)

type outcome =
  | Optimal of {
      objective : float;
      solution : float array;  (** the structural variables *)
      duals : float array;
          (** one dual multiplier per row, in input order: the shadow
              price [∂objective/∂rhs], [≤ 0] on [Le] rows, [≥ 0] on
              [Ge] rows, free on [Eq] rows; non-binding rows price at
              0.  On degenerate optima the value is one valid
              choice. *)
    }  (** Minimiser found. *)
  | Infeasible  (** Phase 1 ended with positive artificial mass. *)
  | Unbounded  (** Phase 2 found an improving ray. *)
(** The outcome every LP user shares: {!Problem}, [Es_check.Lp_cert]
    and the tests' dense reference [Dense_simplex]. *)

type basis
(** A basis: one column per row.  An optimal one is reusable as a
    warm start for any problem with the same columns (e.g.
    {!Sparse.with_rhs} restatements). *)

val basis_of_columns : int array -> basis
(** Name a starting basis by its columns in {!Sparse} numbering
    (structural columns, then the slack/surplus columns of
    {!Sparse.slack_col}), one per row; the position order is the order
    {!Lu.refactor} eliminates them in.  Nothing is checked here:
    {!resolve} falls back to a cold solve if the columns are not a
    nonsingular basis of the problem it is given. *)

val solve :
  ?bland_after:int -> ?refactor_every:int -> Sparse.t -> outcome * basis option
(** Cold two-phase solve.  The basis is [Some] exactly on [Optimal].

    @raise Failure if a phase exceeds 200_000 pivots or the basis
    becomes numerically singular mid-solve. *)

type t
(** A solver over one problem's columns and objective, holding a basis
    and everything needed to re-optimise from it. *)

val start : basis -> Sparse.t -> t
(** [start basis sp] allocates a solver for [sp]'s columns that will
    start from [basis].  Nothing is factorised or checked here: the
    first {!resolve} factorises [basis], or falls back to a cold solve
    if it is not a nonsingular basis of [sp]. *)

val resolve : t -> Sparse.t -> outcome * basis option
(** [resolve solver sp] re-optimises for [sp], which must have the
    solver's columns and objective ({!Sparse.same_columns}) and may
    have any right-hand side.  It is a warm solve (counted under
    ["lp_warm_starts"]) from the basis the previous {!resolve} ended
    at, or from {!start}'s basis the first time: the basic values of
    the new right-hand side come from one FTRAN through the factors
    and eta file that solve left, and the reduced costs the dual
    simplex left are reused.  Then the solve runs phase 2 if the basis
    is primal feasible, else the dual simplex if it is dual feasible.
    An invalid or singular start basis, a basis neither primal nor
    dual feasible, and a stalled dual simplex fall back to the cold
    two-phase solve of {!solve} (counted under
    ["lp_warm_cold_fallbacks"]) inside the solver's own buffers, and
    the next {!resolve} continues from where that cold solve ended.
    The result is identical in kind to a cold solve — only faster.
    Every outcome, [Infeasible] and [Unbounded] included, leaves a
    basis to continue from; a [resolve] that raises leaves its basis
    to be factorised again by the next one.

    @raise Invalid_argument if [sp]'s columns or objective are not the
    solver's.
    @raise Failure as {!solve}. *)

val solve_from : basis -> Sparse.t -> outcome * basis option
(** [solve_from basis sp] is [resolve (start basis sp) sp]: the
    one-shot warm solve, with the same arithmetic and fallbacks.

    @raise Failure as {!solve}. *)
