(** Revised simplex over sparse columns with an LU-factorised basis.

    Instead of carrying an m×n tableau, each iteration prices columns
    against [y = B⁻ᵀc_B] and computes the entering direction
    [w = B⁻¹a_j] from the {!Lu} factorisation, updated in product form
    and refactorised every [refactor_every] pivots (or earlier on a
    numerically unsafe eta).  Pricing is Dantzig (partial, with a
    rotating window, on wide problems) with a Bland fallback after
    [bland_after] iterations of a phase to escape cycling.

    The payoff is {!solve_from}: a solve may start from any named
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

    Every array a pivot touches — the FTRAN/BTRAN buffers, the basic
    costs, the reduced costs and the pivot row — is allocated once per
    solve and owned by it, so pivots allocate nothing on the major
    heap and concurrent solves share no state. *)

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
    {!Lu.factor} eliminates them in.  Nothing is checked here:
    {!solve_from} falls back to a cold solve if the columns are not a
    nonsingular basis of the problem it is given. *)

val solve :
  ?bland_after:int -> ?refactor_every:int -> Sparse.t -> outcome * basis option
(** Cold two-phase solve.  The basis is [Some] exactly on [Optimal].

    @raise Failure if a phase exceeds 200_000 pivots or the basis
    becomes numerically singular mid-solve. *)

val solve_from :
  ?bland_after:int -> ?refactor_every:int -> basis -> Sparse.t -> outcome * basis option
(** Warm solve from a previous optimal basis or a named starting basis
    (counted under ["lp_warm_starts"]).  Invalid, singular or
    otherwise stale bases, bases neither primal nor dual feasible, and
    stalled dual simplex runs fall back to {!solve} (counted under the
    ["lp_warm_cold_fallbacks"] telemetry counter), so the result is
    identical in kind to a cold solve — only faster.

    @raise Failure as {!solve}. *)
