(** Replication as an alternative to re-execution (Section V).

    The paper's future-work section proposes combining {e replication}
    (run the task simultaneously on a second processor; same energy
    doubling and the same [ε²] reliability gain as re-execution, but
    {e no} extra time on the critical path) with re-execution, and asks
    for the best trade-off.  This module studies the cleanest setting
    exhibiting the trade-off — a linear chain on one processor with one
    idle mirror processor — which experiment E12 sweeps.

    Per task the three options are {!Rel}'s three choices:

    - [Single] is {!Rel.once}: time [w/f], energy [w·f²], needs
      [f ≥ f_rel];
    - [Reexecute] is {!Rel.twice}: time [2w/f], energy [2w·f²], needs
      [f ≥ f_lo];
    - [Replicate] is {!Rel.replicated}: time [w/f], energy [2w·f²],
      needs [f ≥ f_lo] (the replica occupies the mirror exactly while
      the primary runs, so chain tasks never contend for it).

    Given the per-task choices, optimal speeds come from the chain's
    one waterfilling, {!Tricrit_chain.waterfill}, whose KKT rule
    [fᵢ = κᵢ·f_c] with [κᵢ = (timeᵢ/energyᵢ)^{1/3}] makes replicated
    tasks run a factor [2^{-1/3}] slower than the common level, which
    is where their extra energy is clawed back. *)

type kind = Single | Reexecute | Replicate

type solution = {
  kinds : kind array;
  speeds : (float[@units "freq"]) array;
  energy : (float[@units "energy"]);
  time : (float[@units "time"]);
      (** worst-case chain time (= mirror-feasible) *)
}

val evaluate :
  rel:Rel.params ->
  deadline:(float[@units "time"]) ->
  weights:(float[@units "work"]) array ->
  kinds:kind array ->
  solution option
(** Optimal speeds for fixed per-task choices via
    {!Tricrit_chain.waterfill}; [None] when infeasible.

    @raise Invalid_argument if a root-bracketing step finds no sign change (degenerate reliability or speed bounds). *)

val solve_exact :
  rel:Rel.params ->
  deadline:(float[@units "time"]) ->
  weights:(float[@units "work"]) array ->
  solution option
(** Enumerate all [3ⁿ] option vectors ({!Subset_search.exhaustive};
    at most 12 tasks).

    @raise Invalid_argument if the instance exceeds the exhaustive-search size bound. *)

val solve_greedy :
  rel:Rel.params ->
  deadline:(float[@units "time"]) ->
  weights:(float[@units "work"]) array ->
  solution option
(** Local search over per-task option changes
    ({!Subset_search.descent}), as {!Tricrit_chain.solve_greedy} does
    over toggles.

    @raise Invalid_argument if a root-bracketing step finds no sign change (degenerate reliability or speed bounds). *)

val reexec_only :
  rel:Rel.params ->
  deadline:(float[@units "time"]) ->
  weights:(float[@units "work"]) array ->
  solution option
(** Best solution with [Replicate] forbidden — the comparison baseline
    showing what the mirror processor buys.

    @raise Invalid_argument if a root-bracketing step finds no sign change (degenerate reliability or speed bounds). *)

val kind_name : kind -> string
