(** Primal-dual interior-point method for linearly constrained convex
    programs.

    Solves [minimise f(x) subject to A x ≤ b] for smooth convex
    separable [f] with user-supplied gradient and Hessian diagonal.
    This is the engine behind the paper's "geometric programming"
    step (Section III, citing Boyd & Vandenberghe §4.5) for BI-CRIT
    CONTINUOUS on general DAGs: the energy objective [Σ wᵢ³/dᵢ²] is
    convex and separable in the durations, and every
    precedence/deadline constraint is linear in the start times and
    durations, with one to three nonzeros per row.

    {b The method} (Boyd & Vandenberghe §11.7, with Mehrotra's
    predictor–corrector).  The iterate is a strictly feasible [x], its
    slacks [s = b − A x > 0] and a multiplier [λ_r > 0] per row; it
    drives the dual residual [r_d = ∇f(x) + Aᵀλ] and the products
    [s_r λ_r] to zero.  The start is [x0] with [λ_r s_r = |f(x0)|/m],
    so scaling the objective or the variables scales the whole path.
    Each iteration factors [K = diag(h) + Aᵀ diag(λ/s) A + 10⁻¹² I]
    once and solves it twice: the predictor (target products 0) gives
    the centering weight [σ = (μ_aff/μ)³], with [μ = sᵀλ/m]; the
    corrector targets [σμ − Δs_aff·Δλ_aff] per row.  The first trial
    step goes [max(0.99, 1 − μ/μ⁰)] of the way to the boundary of
    [s, λ ≥ 0] (at most 1), and the line search backtracks by 0.8.  A trial point must be strictly feasible
    (its slacks recomputed from [x]), keep every product at least
    [10⁻³·μ], keep [‖r_d‖/‖r_d⁰‖ ≤ 100·μ/μ⁰], and lower the merit
    [‖r_d‖/‖r_d⁰‖ + ‖s∘λ − σμ‖/(√m·μ⁰)] by 1% of the step.  When the
    step falls under 0.1 of the longest one, the iteration retries
    the same factor with the pure Newton direction (no corrector),
    then with [σ ≥ 0.5], then with [σ = 1].

    {b Stops.}  [minimize] returns the first iterate with
    [sᵀλ ≤ min(10⁻⁸, 10⁻¹²·|f(x)|)]: [10⁻⁸] is the duality-gap target,
    a constant of the method, and the relative one keeps the accuracy
    of an answer independent of the instance's units.  It also stops
    at the rounding floor, when no direction of an iteration passes
    the line search (the failed iteration takes no step), and after
    100 iterations.

    {b Counters.}  [barrier_newton_iters] counts iterations, each one
    factored Newton system; [barrier_line_search_evals] the trial
    points; [barrier_centering_steps] the iterations that fell back to
    a centering direction ([σ ≥ 0.5] or [σ = 1]);
    [barrier_newton_cap_hits] the solves that ended at the iteration
    cap; [barrier_shifted_factors] the iterations whose factor needed
    a shifted diagonal.  The [barrier_minimize] timer covers each whole
    solve.

    {b Sparse Newton systems.}  Once per {!minimize} call the lower
    pattern of [K] (the diagonal plus each pair of columns sharing a
    row) and its Cholesky analysis are built ({!Chol.analyze}), in
    flat arrays; each iteration assembles the values in O(nnz) and
    factors and solves in O(nnz(L)), in the natural variable order.
    A trial point computes its slacks in O(nnz) and stops at the first
    non-positive one.  Every sum keeps the order of the dense
    formulation (rows of [A] in order, columns ascending), so factor
    and solves are bit-for-bit those of a dense Cholesky of the same
    matrix.

    {b Shifted factor.}  When the sparse factor meets a non-positive
    pivot (the [10⁻¹²] shift was lost to rounding against the largest
    diagonal entry), the iteration factors the same pattern again with
    [δ] added to every diagonal entry: [δ] starts at that entry's
    rounding unit ([epsilon_float] times it) and grows tenfold per
    retry.  A matrix still indefinite after eight retries gives no
    step.  The Newton systems never leave the sparse pattern, so no
    iteration needs memory beyond [O(nnz(L))]. *)

type rows = {
  row_ptr : int array;  (** length [m + 1]: row [r] is entries [row_ptr.(r) .. row_ptr.(r + 1) − 1] *)
  col_idx : int array;  (** column of each entry, strictly ascending within a row *)
  value : float array;  (** coefficient of each entry *)
}
(** The constraint matrix [A] in compressed sparse row form. *)

type objective = {
  f : float array -> float;  (** objective value *)
  grad : float array -> float array;  (** gradient *)
  hess : float array -> float array;
      (** diagonal of the Hessian ([f] is separable) *)
}

exception Not_strictly_feasible
(** Raised when the supplied starting point violates [A x < b]. *)

val minimize : objective -> a:rows -> b:float array -> x0:float array -> float array
(** [minimize obj ~a ~b ~x0] returns an approximate minimiser.  [x0]
    must satisfy [a x0 < b] strictly.  The duality gap [sᵀλ] ends at
    most [min(10⁻⁸, 10⁻¹²·|f(x)|)] unless the rounding floor or the
    iteration cap comes first.

    @raise Not_strictly_feasible if [x0] is on or outside the
    boundary; it is checked before any other work. *)
