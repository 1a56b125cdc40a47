(** The LP types the solvers and checkers share.

    A linear program [minimise cᵀx subject to A x (≤|=|≥) b, x ≥ 0] is
    the engine behind the paper's polynomial-time result for BI-CRIT
    under the VDD-HOPPING model (Section IV) and for the fixed-subset
    TRI-CRIT VDD-HOPPING subproblem.  This module only names its row
    and outcome types: {!Problem} builds and solves the scheduling LPs,
    {!Revised} solves a {!Sparse} standard form (dense rows go through
    {!Sparse.of_rows}), and the dense tableau the differential tests
    compare against lives in the test oracles, as
    [Es_check.Dense_simplex]. *)

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
