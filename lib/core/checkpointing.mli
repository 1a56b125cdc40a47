(** Checkpointing as an alternative fault-tolerance model.

    The paper (Section II) lists three reliability techniques:
    re-execution (its focus), replication (Section V / {!Replication})
    and {e checkpointing} — "saving the work done at some certain
    points of the work, hence reducing the amount of work lost when a
    failure occurs" [Melhem, Mosse & Elnozahy].  This module implements
    the natural checkpointing counterpart of the paper's worst-case
    model on a linear chain:

    - the chain is cut into contiguous {e segments}; a checkpoint
      (extra work [c_w], run at the segment's speed) is written at the
      end of each segment;
    - a segment whose execution fails is re-executed {e as a whole}
      from the previous checkpoint, so the worst case charges every
      segment twice (work [2·(W_s + c_w)]);
    - the reliability constraint applies per segment, mirroring the
      task constraint: two attempts of the whole segment must reach the
      threshold reliability of its total work,
      [ε_s(f)² ≤ ε(f_rel, W_s)].

    Task-level re-execution is the special case "checkpoint after every
    task" with [c_w = 0]; positive [c_w] creates the classic
    granularity trade-off: long segments amortise checkpoint cost but
    must re-execute more work and need faster (costlier) speeds.

    The optimiser sweeps a grid of common speed levels; for each level
    the optimal segmentation is an interval DP over the chain
    (O(n²) per level). *)

type segmentation = int list
(** Segment lengths, in chain order; they sum to [n]. *)

type solution = {
  segments : segmentation;
  speeds : (float[@units "freq"]) array;  (** one speed per segment *)
  energy : (float[@units "energy"]);
      (** worst case: both attempts of every segment *)
  time : (float[@units "time"]);  (** worst-case chain time *)
}

val evaluate :
  rel:Rel.params ->
  checkpoint_work:(float[@units "work"]) ->
  deadline:(float[@units "time"]) ->
  weights:(float[@units "work"]) array ->
  segmentation ->
  solution option
(** Optimal speeds for a given segmentation: {!Tricrit_chain.waterfill}
    of each segment's {!Rel.twice} (work [W_s + c_w], floor
    {!Rel.min_reexec_speed} of that work); [None] when infeasible or
    when the lengths do not partition the chain.  Each call counts
    under the {!Es_obs.Obs} counter ["checkpointing_evaluations"].

    @raise Invalid_argument if a root-bracketing step finds no sign change (degenerate reliability or speed bounds). *)

val solve :
  rel:Rel.params ->
  checkpoint_work:(float[@units "work"]) ->
  deadline:(float[@units "time"]) ->
  weights:(float[@units "work"]) array ->
  solution option
(** Best segmentation over a grid of 64 common
    speed levels: per level, an interval DP picks the
    minimum-"energy at that level" segmentation, then {!evaluate}
    re-optimises its speeds exactly, once per distinct segmentation.
    Returns the cheapest feasible result, the first found on a tie.

    @raise Invalid_argument if a root-bracketing step finds no sign change (degenerate reliability or speed bounds). *)

val reexec_equivalent :
  rel:Rel.params ->
  deadline:(float[@units "time"]) ->
  weights:(float[@units "work"]) array ->
  solution option
(** The degenerate comparison point: one task per segment and zero
    checkpoint cost — numerically equal to
    {!Tricrit_chain.evaluate_subset} with every task re-executed.

    @raise Invalid_argument if a root-bracketing step finds no sign change (degenerate reliability or speed bounds). *)
