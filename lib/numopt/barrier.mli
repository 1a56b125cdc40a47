(** Log-barrier interior-point method for linearly constrained convex
    programs.

    Solves [minimise f(x) subject to A x ≤ b] for smooth convex
    separable [f] with user-supplied gradient and Hessian diagonal.
    This is the "geometric programming" engine the paper invokes
    (Section III, citing Boyd & Vandenberghe §4.5) for BI-CRIT
    CONTINUOUS on general DAGs: the energy objective [Σ wᵢ³/dᵢ²] is
    convex and separable in the durations, and every
    precedence/deadline constraint is linear in the start times and
    durations, with one to three nonzeros per row.

    The method is the standard path-following scheme: minimise
    [φ = t·f(x) − Σ log(bᵢ − aᵢx)] by damped Newton (a centering) for
    [t = 1, 15, 15², …] until [m/t] (the duality-gap bound of an
    exactly centered point) drops below [tol].

    {b Stops.}  [m/t ≤ tol] is only the outer stop: it ends the
    sequence of centerings.  A centering ends at the first of four
    events: the Newton decrement [λ²] is at most [2·10⁻¹⁰]; the
    Armijo decrease a full step must show, [λ²/4], is at most
    [ε·|φ|] (ε the double-precision machine epsilon), so it is below
    φ's rounding unit; the point the backtracking line search settles
    on does not lower φ strictly in double precision, and that step
    is not taken; or 80 Newton steps.  The two middle stops end the
    centerings that large [t·f] would stall at the rounding floor.
    The counter [barrier_newton_cap_hits] counts the centerings that
    end at the cap.

    {b Sparse Newton steps.}  The slacks [s = b − A x] are computed
    once per Newton step and shared by the barrier value, its gradient
    and its Hessian [t·diag(h) + Aᵀ diag(1/s²) A + 10⁻¹² I].  Once per
    {!minimize} call the Hessian's lower pattern (the diagonal plus
    each pair of columns sharing a row) and its Cholesky analysis are
    built ({!Chol.analyze}); each step then assembles the values in
    O(nnz) and factors and solves in O(nnz(L)), in the natural
    variable order.  A line-search trial point computes its slacks in
    O(nnz) and stops at the first non-positive one.

    {b Bit-identical to the dense method.}  Every sum keeps the order
    of the dense formulation (rows of [A] in order, columns ascending)
    and skips only exact zeros, so iterates, Newton counts and answers
    are bit-for-bit those of dense assembly plus a dense Cholesky.

    {b Dense fallback.}  When the sparse factor meets a non-positive
    pivot, the step builds the dense Hessian (both triangles, each
    entry with its own rounding) and solves it with the pivoting
    {!Dense_lu}; if that is singular too, it takes the gradient step
    [−10⁻⁶·g].  The counter [barrier_dense_fallbacks] counts these
    steps, [barrier_line_search_evals] the trial points. *)

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

val minimize : ?tol:float -> objective -> a:rows -> b:float array -> x0:float array -> float array
(** [minimize obj ~a ~b ~x0] returns an approximate minimiser.  [x0]
    must satisfy [a x0 < b] strictly.  [tol] is the outer stop's
    target duality-gap bound [m/t] (default [1e-8]).

    @raise Not_strictly_feasible if [x0] is on or outside the
    boundary. *)

val feasible_start : a:rows -> b:float array -> x0:float array -> bool
(** [feasible_start ~a ~b ~x0] checks strict feasibility, as required
    by {!minimize}. *)
