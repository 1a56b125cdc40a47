(** One-dimensional root finding and minimisation.

    These routines back the closed-form-adjacent computations of the
    core library: the minimum re-execution speed (root of a monotone
    reliability equation), the fork TRI-CRIT window split (unimodal
    minimisation), and waterfilling levels. *)

val bisect : ?tol:float -> f:(float -> float) -> lo:float -> hi:float -> float
(** [bisect ~f ~lo ~hi] finds [x] with [f x = 0] assuming
    [f lo] and [f hi] have opposite signs (or one of them is zero).
    [tol] (default [1e-12]) bounds the final interval width relative to
    the initial one; at most 200 halvings.
    @raise Invalid_argument if the sign condition fails. *)

val root_monotone :
  ?tol:float -> f:(float -> float) -> lo:float -> hi:float -> float
(** Root of a monotone (either direction) function on [\[lo, hi\]],
    clamping to the nearest endpoint when the root lies outside.

    @raise Invalid_argument if a root-bracketing step finds no sign change (degenerate reliability or speed bounds). *)

val golden_min : ?tol:float -> f:(float -> float) -> lo:float -> hi:float -> float
(** Golden-section search for the minimiser of a unimodal [f] on
    [\[lo, hi\]], at most 200 steps.  Returns the abscissa. *)
