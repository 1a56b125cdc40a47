(** Constructive companions to the paper's complexity results.

    The paper's negative results are reductions; this module builds the
    corresponding instances so that the test suite can {e exercise}
    them: solving the constructed scheduling instance exactly answers
    the original combinatorial question.

    {b DISCRETE BI-CRIT is NP-complete (R5).}  From 2-PARTITION: given
    integers [a₁ … aₙ] of sum [S], build a chain of [n] tasks with
    weights [aᵢ] on one processor, speed set [{1, 2}], deadline
    [D = 3S/4] and energy threshold [E* = 5S/2].  Writing [S_A] for the
    total weight of tasks run at speed 1: the makespan is
    [S/2 + S_A/2 ≤ D ⟺ S_A ≤ S/2] and the energy is
    [4S − 3S_A ≤ E* ⟺ S_A ≥ S/2] — both hold iff [S_A = S/2], i.e. iff
    the multiset admits a perfect partition.

    {b TRI-CRIT is NP-hard on a chain (R7).}  In the loose-deadline
    regime (the common waterfilling level below every reliability
    floor), choosing the re-executed subset is exactly a knapsack:
    re-executing task [i] saves energy [sᵢ = wᵢ·(f_rel² − 2f_loᵢ²)]
    and costs extra time [cᵢ = 2wᵢ/f_loᵢ − wᵢ/f_rel] against the slack
    budget [B = D − Σ wᵢ/f_rel].  {!knapsack_view} extracts
    [(s, c, B)] from {!Rel.knapsack_item} and {!knapsack_optimal}
    solves it by enumeration so tests can confirm the equivalence with
    {!Tricrit_chain.solve_exact}. *)

type two_partition = {
  mapping : Mapping.t;  (** chain of the [aᵢ] on one processor *)
  levels : (float[@units "freq"]) array;  (** [{1, 2}] *)
  deadline : (float[@units "time"]);  (** [3S/4] *)
  energy_threshold : (float[@units "energy"]);  (** [5S/2] *)
}

val of_two_partition : int array -> two_partition
(** Build the reduction instance.  @raise Invalid_argument on an empty
    array or non-positive entries. *)

val decide_two_partition : int array -> bool
(** Answer 2-PARTITION by solving the reduced instance with
    {!Bicrit_discrete.solve_exact} and comparing to the threshold.
    Exponential in the worst case — for tests on small inputs.

    @raise Failure if the exact search exhausts its node budget.
    @raise Invalid_argument if an argument violates a documented precondition. *)

val two_partition_brute_force : int array -> bool
(** Direct subset enumeration, the test oracle. *)

type knapsack = {
  savings : (float[@units "energy"]) array;
      (** energy saved by re-executing each task *)
  costs : (float[@units "time"]) array;  (** extra chain time consumed *)
  budget : (float[@units "time"]);  (** available slack [D − Σ wᵢ/f_rel] *)
}

val knapsack_view :
  rel:Rel.params ->
  deadline:(float[@units "time"]) ->
  weights:(float[@units "work"]) array ->
  knapsack option
(** The knapsack structure of the loose-deadline chain (valid when
    every floor dominates the common level; [None] if some task cannot
    be re-executed at all).

    @raise Invalid_argument if a root-bracketing step finds no sign change (degenerate reliability or speed bounds). *)

val knapsack_optimal : knapsack -> bool array * (float[@units "energy"])
(** Enumerate subsets: maximise total saving within the budget.
    Returns the chosen subset and the saving. *)

val incremental_of_two_partition : int array -> two_partition
(** The same reduction targeted at the INCREMENTAL model: the speed set
    [{1, 2}] is the grid [fmin = 1, δ = 1, fmax = 2], so the instance
    witnesses NP-completeness of INCREMENTAL BI-CRIT as well (the paper
    derives DISCRETE hardness "and hence" INCREMENTAL).

    @raise Invalid_argument on an empty item list. *)
