(** Exact TRI-CRIT CONTINUOUS on general (small) DAGs.

    The paper proves TRI-CRIT NP-hard and therefore evaluates
    heuristics; to *measure* heuristic quality the reproduction also
    needs ground truth on small instances.  This module provides it by
    exhausting the combinatorial dimension — the re-executed subset —
    and solving the remaining convex program exactly for each subset
    (one {!Heuristics.evaluate_subset} call, i.e. one barrier solve).

    Cost: [2ⁿ] convex solves.  A simple dominance prune cuts most
    subsets: if re-executing task [i] cannot pay for itself even at its
    reliability floor with unlimited time ([2wᵢ·f_loᵢ² ≥ wᵢ·f_rel²]),
    no optimal subset contains [i]. *)

type solution = Heuristics.solution

val solve :
  rel:Rel.params -> deadline:(float[@units "time"]) -> Mapping.t -> solution option
(** Exact optimum ({!Subset_search.exhaustive} over the candidates).
    @raise Invalid_argument when the number of {e candidate} tasks
    (after the dominance prune) exceeds 12. *)

val candidates : rel:Rel.params -> Dag.t -> bool array
(** The dominance prune: [true] for tasks whose re-execution could ever
    reduce energy, that is whose {!Rel.knapsack_item} saves energy.

    @raise Invalid_argument if a root-bracketing step finds no sign change (degenerate reliability or speed bounds). *)
