type relation = Sparse.relation = Le | Eq | Ge

type constr = Sparse.constr = {
  coeffs : float array;
  relation : relation;
  rhs : float;
}

type outcome = Revised.outcome =
  | Optimal of { objective : float; solution : float array; duals : float array }
  | Infeasible
  | Unbounded
