(** Dense two-phase tableau simplex: the reference LP solver that the
    differential tests check the revised sparse core,
    {!Es_lp.Revised.solve}, against.

    It solves the same problem with the same outcome types —
    [minimise cᵀx subject to A x (≤|=|≥) b, x ≥ 0] — but shares none of
    the sparse columns, LU factorisation or eta updates the revised
    core relies on: O(m·n) work per pivot over a dense tableau, Dantzig
    pricing with a switch to Bland's rule against cycling.  It records
    no telemetry, so the [simplex_*] counters count production solves
    only. *)

val solve : obj:float array -> Es_lp.Sparse.constr list -> Es_lp.Revised.outcome
(** [solve ~obj constraints] minimises [obj · x]; duals follow the
    shadow-price convention of {!Es_lp.Revised.outcome}.  Each phase
    stops after 200 000 pivots.

    @raise Failure if the iteration limit is exceeded. *)
