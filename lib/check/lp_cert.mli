(** Independent certification of LP optima.

    An LP solve ({!Es_lp.Revised.outcome}) claims
    [Optimal {objective; solution; duals}];
    this module verifies the claim against the raw problem statement
    without re-running (or trusting) the solver.  For the minimisation
    [min cᵀx, A x (≤|=|≥) b, x ≥ 0] an optimal primal-dual pair
    [(x, y)] is characterised by four checkable conditions:

    - {b primal feasibility}: every row holds and [x ≥ 0];
    - {b dual feasibility}: reduced costs [rⱼ = cⱼ − Σᵢ yᵢ·aᵢⱼ ≥ 0]
      (the implicit [x ≥ 0] rows absorb the slack), with the shadow
      price sign convention of {!Es_lp.Revised.outcome}: [yᵢ ≤ 0] on
      [≤] rows, [yᵢ ≥ 0] on [≥] rows, free on [=] rows;
    - {b complementary slackness}: [yᵢ·(bᵢ − aᵢx) = 0] per row and
      [xⱼ·rⱼ = 0] per variable;
    - {b zero duality gap}: [cᵀx = bᵀy] (and both equal the reported
      objective).

    Any feasible pair passing all four is optimal by LP duality — the
    checker is a complete certificate, not a heuristic.  Every
    residual is scaled by the magnitude of the data and must stay
    within [1e-6]. *)

type report = {
  primal_infeasibility : float;
      (** worst row violation / negative-variable mass, scaled *)
  dual_infeasibility : float;
      (** worst reduced-cost or dual-sign violation, scaled *)
  complementary_slackness : float;
      (** worst [|yᵢ·slackᵢ|] / [|xⱼ·rⱼ|], scaled *)
  duality_gap : float;  (** [|cᵀx − bᵀy|], scaled *)
  objective_mismatch : float;
      (** [|cᵀx − reported objective|], scaled *)
}

type verdict = Certified of report | Rejected of report * string

val certify :
  obj:float array ->
  constraints:Es_lp.Sparse.constr list ->
  objective:float ->
  solution:float array ->
  duals:float array ->
  verdict
(** Check one claimed optimum. *)

val certify_outcome :
  obj:float array ->
  constraints:Es_lp.Sparse.constr list ->
  Es_lp.Revised.outcome ->
  verdict option
(** [Some] verdict on [Optimal]; [None] on [Infeasible]/[Unbounded]
    (those claims carry no certificate we can check here). *)

val certify_problem :
  Es_lp.Problem.t ->
  Es_lp.Problem.solution ->
  verdict
(** Certify a named-variable {!Es_lp.Problem} solution against the
    problem's own rows ({!Es_lp.Problem.constraints}). *)

val describe : verdict -> string
(** One-line human rendering ("certified" or the failing condition). *)
