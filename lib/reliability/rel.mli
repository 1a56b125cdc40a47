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
    TRI-CRIT problem.

    {b The per-task choices.}  Every TRI-CRIT solver prices the same
    options for a task of weight [w], each a {!choice}: at speed [f] it
    takes [time/f] and costs [energy·f²], and [f] may not drop below
    its [floor].

    - {!once}: [{w; w; f_rel}], one execution at least at [f_rel];
    - {!twice}: [{2w; 2w; f_lo}], re-execution, two executions at one
      equal speed at least at [f_lo(w)] ({!min_reexec_speed});
    - {!replicated}: [{w; 2w; f_lo}], a replica on a mirror processor
      runs alongside the task, so only one execution's time counts.

    {!knapsack_item} is the trade of R7's knapsack: re-executing at the
    floors saves [w·(f_rel² − 2f_lo²)] of energy for [2w/f_lo − w/f_rel]
    of extra time.

    {b Invariant.}  {!params} is [private]: {!make} is its only
    constructor, so [fmin ≤ f_rel ≤ fmax] holds for every value, and
    every [floor] above lies in [\[fmin, fmax\]]. *)

type params = private {
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
    @raise Invalid_argument unless [0 < fmin <= fmax],
    [fmin <= frel <= fmax], [lambda0 >= 0] and [sensitivity >= 0]
    (a NaN fails each of these). *)

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

type choice = {
  time : (float[@units "work"]);  (** at speed [f] the task takes [time/f] *)
  energy : (float[@units "work"]);  (** at speed [f] it costs [energy·f²] *)
  floor : (float[@units "freq"]);  (** slowest speed that meets the constraint *)
}
(** One way to run a task: see the header. *)

val once : params -> w:(float[@units "work"]) -> choice
(** [{w; w; f_rel}]. *)

val twice : params -> w:(float[@units "work"]) -> choice option
(** [{2w; 2w; f_lo}], [None] when re-execution cannot meet the
    constraint even at [fmax].

    @raise Invalid_argument as {!min_reexec_speed}. *)

val replicated : params -> w:(float[@units "work"]) -> choice option
(** [{w; 2w; f_lo}], [None] as for {!twice}.

    @raise Invalid_argument as {!min_reexec_speed}. *)

val choices :
  params -> weights:(float[@units "work"]) array -> subset:bool array -> choice array option
(** The choice vector of a re-execution subset: {!twice} of
    [weights.(i)] where [subset.(i)], {!once} elsewhere.  [None] when a
    re-executed task cannot meet the constraint at [fmax].

    @raise Invalid_argument as {!min_reexec_speed}. *)

type item = {
  saving : (float[@units "energy"]);  (** [w·(f_rel² − 2f_lo²)] *)
  extra_time : (float[@units "time"]);  (** [2w/f_lo − w/f_rel] *)
}

val knapsack_item : params -> w:(float[@units "work"]) -> item option
(** R7's knapsack item of a task: what re-executing it at the floors
    saves and costs against running it once at [f_rel].  [None] as for
    {!twice}.

    @raise Invalid_argument as {!min_reexec_speed}. *)
