(** Transient-fault reliability model — Equation (1) of the paper.

    The reliability of task [Tᵢ] (weight [wᵢ]) executed once at speed
    [f] is

    {v Rᵢ(f) = 1 − λ₀ · exp(d·(fmax − f)/(fmax − fmin)) · wᵢ/f v}

    i.e. the failure probability is an instantaneous fault rate
    [rate f = λ₀·exp(d·(fmax−f)/(fmax−fmin))] — increasing as the
    processor slows down, which is DVFS's negative effect on
    reliability [Zhu et al. 2004] — multiplied by the execution time
    [wᵢ/f].  The TRI-CRIT constraint demands [Rᵢ ≥ Rᵢ(f_rel)] for a
    threshold speed [f_rel].

    A re-executed task succeeds unless both attempts fail:
    [Rᵢ = 1 − (1 − Rᵢ(f⁽¹⁾))(1 − Rᵢ(f⁽²⁾))], so the constraint becomes
    [ε(f⁽¹⁾)·ε(f⁽²⁾) ≤ ε(f_rel)] on failure probabilities — which is
    what lets a re-executed task run {e slower} than [f_rel] while
    still meeting the threshold, the central trade-off of the
    TRI-CRIT problem. *)

type params = {
  lambda0 : float;  (** average fault rate at [fmax] (per time unit) *)
  sensitivity : float;  (** the exponent [d ≥ 0] of Eq. (1) *)
  fmin : float;
  fmax : float;
  frel : float;  (** reliability threshold speed [f_rel] *)
}

val default : params
(** λ₀ = 10⁻⁵, d = 3, fmin = 1/3·fmax with fmax = 1, f_rel = fmax —
    magnitudes used throughout the DVFS-reliability literature the
    paper builds on (Zhu et al.).

    @raise Invalid_argument unless [0 < fmin <= fmax]. *)

val make :
  ?lambda0:float -> ?sensitivity:float -> ?frel:float -> fmin:float -> fmax:float ->
  unit -> params
(** Build parameters; defaults as in {!default} with [frel = fmax].
    @raise Invalid_argument if [frel] is outside [\[fmin, fmax\]]. *)

val rate : params -> f:float -> float
(** Fault rate [λ₀·exp(d·(fmax−f)/(fmax−fmin))] at speed [f] (per time
    unit).  When [fmin = fmax] the exponent is taken as 0. *)

val failure_prob : params -> f:float -> w:float -> float
(** [ε = rate(f) · w/f].  Not clamped — the analysis of the paper
    treats it as a linear quantity; it stays ≪ 1 for realistic λ₀. *)

val reliability : params -> f:float -> w:float -> float
(** [1 − ε], clamped into [\[0, 1\]] (only for display/simulation). *)

val target_failure : params -> w:float -> float
(** [ε(f_rel)] — the per-task bound the TRI-CRIT constraint imposes. *)

val reexec_failure : params -> f1:float -> f2:float -> w:float -> float
(** Combined failure probability of two attempts, [ε(f1)·ε(f2)]. *)

val meets_single : ?tol:float -> params -> f:float -> w:float -> bool
(** Single execution meets the constraint iff [f ≥ f_rel] (reliability
    increases with speed).  The check is numerical on [ε]. *)

val meets_reexec : ?tol:float -> params -> f1:float -> f2:float -> w:float -> bool
(** Two executions meet the constraint iff
    [ε(f1)·ε(f2) ≤ ε(f_rel)]. *)

val min_reexec_speed : params -> w:float -> float option
(** Smallest equal speed [f] such that re-executing at [(f, f)]
    satisfies the constraint: the root of [ε(f)² = ε(f_rel)] in
    [\[fmin, fmax\]] ([ε] is strictly decreasing in [f]).  [None] when
    even [fmax] fails — cannot happen for sane parameters since
    [ε(f_rel) ≥ ε(fmax)²] would be violated only for huge [λ₀·w].
    Equal speeds are optimal for a re-executed task under a total-time
    budget (by convexity of [f ↦ w·f²] along [1/f]-budgets), so this
    is the relevant lower bound.

    @raise Invalid_argument if a root-bracketing step finds no sign change (degenerate reliability or speed bounds). *)

val vdd_failure : params -> parts:(float * float) list -> float
(** Failure probability of a VDD-HOPPING execution given [parts], a
    list of [(speed, time)] intervals covering the task:
    [Σ rate(fₖ)·tₖ].  Reduces to {!failure_prob} for a single part
    executing the whole task. *)
