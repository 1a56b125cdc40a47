(** The metamorphic / differential relation catalogue.

    A relation takes a generated {!Gen.inst} and checks one executable
    consequence of the paper's theory against the production solvers:

    - ["lp-cert"]: the VDD-HOPPING LP solved two-phase and from
      {!Bicrit_vdd.crash_basis} (the path that serves answers) gives
      the same outcome class and optimum (rtol 1e-8), and each optimum
      is re-certified by {!Lp_cert} (primal/dual feasibility,
      complementary slackness, zero gap); an [Infeasible] claim is
      cross-checked against the all-[fmax] schedule.
    - ["lp-warm"]: sweeping the VDD LP over several deadlines with the
      optimal basis chained from one solve into the next
      ({!Es_lp.Problem.solve_warm}, loosest deadline first, as
      {!Bicrit_vdd.energy_sweep} visits them, the first step from the
      crash basis) yields the same outcome class and objective (rtol
      1e-8) as independent cold solves, every warm optimum is
      re-certified by {!Lp_cert}, and {!Bicrit_vdd.energy_sweep}
      returns the chain's energies bit for bit.
    - ["kkt"]: every {!Bicrit_continuous.solve_general} result passes
      {!Kkt.check_general} (feasibility, energy accounting,
      critical-path saturation, exchange stationarity).
    - ["deadline-scaling"]: with no speed clamp active, [D → 2D]
      scales optimal CONTINUOUS speeds by [1/2] and energy by [1/4]
      (speeds ∝ 1/D, energy ∝ 1/D²).
    - ["work-scaling"]: [w → 2w] at fixed [D] scales speeds by [2] and
      energy by [8] ([c³]).
    - ["model-dominance"]: on a shared even speed grid,
      [E_CONT ≤ E_VDD ≤ E_INCR ≤ E_DISCRETE] where INCREMENTAL uses
      the full grid and DISCRETE a coarser subset; the round-up
      approximation can never beat the exact DISCRETE optimum.
    - ["closed-form-vs-barrier"]: the paper's chain/fork/SP closed
      forms agree with the log-barrier convex solver.
    - ["simplex-vs-brute"]: on one processor the VDD-HOPPING LP
      optimum equals the hull closed form [W·H(D/W)] of {!Brute}.
    - ["discrete-vs-brute"]: branch-and-bound DISCRETE optima equal
      exhaustive enumeration on tiny instances.
    - ["feasibility"]: every schedule returned by any solver passes
      {!Validate.check} under its own model, and [check]/[is_feasible]
      agree.

    Relations return {!Skip} when the instance does not exercise them
    (e.g. too large for exhaustive search, non-SP graph after
    shrinking, deadline on the feasibility boundary) — a skip is not a
    verdict. *)

type outcome = Pass | Skip of string | Fail of string

type t = {
  name : string;
  descr : string;
  shapes : Gen.shape list;  (** instance shapes this relation draws *)
  run : Gen.inst -> outcome;
}

val all : t list
(** The registry, in documentation order.

    @raise Failure if an internal iteration or node budget is exhausted (e.g. the simplex pivot limit).
    @raise Invalid_argument if an argument violates a documented precondition. *)

val find : string -> t option
(** @raise Failure if an internal iteration or node budget is exhausted (e.g. the simplex pivot limit).
    @raise Invalid_argument if an argument violates a documented precondition. *)

val names : unit -> string list
(** @raise Failure if an internal iteration or node budget is exhausted (e.g. the simplex pivot limit).
    @raise Invalid_argument if an argument violates a documented precondition. *)
