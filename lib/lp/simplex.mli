(** Two-phase primal simplex — compatibility front door.

    Solves [minimise cᵀx subject to A x (≤|=|≥) b, x ≥ 0].  This is the
    LP engine behind the paper's polynomial-time result for BI-CRIT
    under the VDD-HOPPING model (Section IV) and for the fixed-subset
    TRI-CRIT VDD-HOPPING subproblem.

    {!solve} routes through {!Revised} — a revised simplex over
    {!Sparse} CSC columns with an LU-factorised basis, eta-file
    updates and periodic refactorisation — which also exposes the
    warm-start entry points ({!Revised.solve_from}) that Pareto
    deadline sweeps chain between near-identical LPs.  The dense
    tableau the differential tests compare it against lives in the
    test oracles, as [Es_check.Dense_simplex]. *)

type relation = Sparse.relation = Le | Eq | Ge

type constr = Sparse.constr = {
  coeffs : float array;
  relation : relation;
  rhs : float;
}
(** One row [coeffs · x (≤|=|≥) rhs].  [coeffs] has one entry per
    structural variable. *)

type outcome = Revised.outcome =
  | Optimal of {
      objective : float;
      solution : float array;  (** the structural variables *)
      duals : float array;
          (** one dual multiplier per constraint, in input order: the
              shadow price [∂objective/∂rhs].  For a binding [≤] row of
              a minimisation it is non-positive; non-binding rows price
              at 0.  On degenerate optima the value is one valid
              choice. *)
    }  (** Minimiser found. *)
  | Infeasible  (** Phase 1 ended with positive artificial mass. *)
  | Unbounded  (** Phase 2 found an improving ray. *)

val solve : ?max_iters:int -> obj:float array -> constr list -> outcome
(** [solve ~obj constraints] minimises [obj · x].  All structural
    variables are implicitly non-negative.  [max_iters] bounds the
    total pivot count (default [200_000]); exceeding it raises
    [Failure].  Thin wrapper over {!Revised.solve}.

    @raise Failure if the simplex iteration limit is exceeded. *)
