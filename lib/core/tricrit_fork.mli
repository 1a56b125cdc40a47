(** TRI-CRIT on a fork graph — the polynomial case (Section III).

    For a fork (source [T₀], children [T₁ … Tₙ] on their own
    processors) the paper gives a polynomial-time algorithm based on an
    observation opposite to the chain strategy: {e highly
    parallelizable tasks should be preferred when allocating time slots
    for re-execution or deceleration}.  Structurally, once the time
    window is split between the source ([\[0, t₀\]]) and the children
    ([\[t₀, D\]]), every child decides {e independently} whether to
    re-execute — children only interact through [t₀].  The algorithm
    is therefore a one-dimensional search over [t₀] with an O(1)
    optimal decision per task inside a given window. *)

type decision = {
  reexec : bool;
  speed : (float[@units "freq"]);
      (** common speed of the one or two executions *)
  energy : (float[@units "energy"]);
}

val best_in_window :
  rel:Rel.params ->
  w:(float[@units "work"]) ->
  window:(float[@units "time"]) ->
  decision option
(** Cheapest feasible way to run a task of weight [w] inside a time
    window: {!Rel.once} at [max(f_rel, w/window)] or {!Rel.twice} at
    [max(f_lo, 2w/window)], whichever is cheaper; [None] when neither
    fits below [fmax].  This is the per-child oracle.

    @raise Invalid_argument if a root-bracketing step finds no sign change (degenerate reliability or speed bounds). *)

type solution = {
  schedule : Schedule.t;
  energy : (float[@units "energy"]);
  reexecuted : bool array;
  source_window : (float[@units "time"]);  (** the optimised [t₀] *)
}

val solve :
  rel:Rel.params ->
  deadline:(float[@units "time"]) ->
  Dag.t ->
  solution option
(** The fork algorithm.  The DAG must be a fork with task 0 as the
    source (as produced by {!Generators.fork}); the mapping used is one
    task per processor.  A coarse scan over [t₀] at 512 cells is
    refined by golden-section search around the
    best cell.  @raise Invalid_argument if the DAG is not a fork. *)
