(** Energy lower bounds used to normalise heuristic results.

    Experiment E8 reports heuristic energies as ratios to a bound that
    no feasible TRI-CRIT schedule can beat, so that numbers are
    comparable across instances.  Two complementary bounds are
    combined:

    - the {e relaxation bound}: the CONTINUOUS BI-CRIT optimum with the
      same deadline and no reliability constraint — dropping
      constraints and re-executions only lowers energy;
    - the {e per-task reliability bound}: with unlimited time, task [i]
      pays at least [min(wᵢ·f_rel², 2wᵢ·f_loᵢ²)] — the cheapest
      reliability-respecting single or double execution. *)

val relaxation :
  rel:Rel.params ->
  deadline:(float[@units "time"]) ->
  Mapping.t ->
  (float[@units "energy"])
(** CONTINUOUS BI-CRIT optimum over [\[fmin, fmax\]].

    @raise Invalid_argument on a malformed task graph (nonpositive weight, out-of-range or self-loop edge, or cycle). *)

val per_task : rel:Rel.params -> Mapping.t -> (float[@units "energy"])
(** [Σᵢ min(wᵢ·f_rel², 2wᵢ·f_loᵢ²)]: the cheaper of {!Rel.once} and
    {!Rel.twice}, each at its floor.

    @raise Invalid_argument if a root-bracketing step finds no sign change (degenerate reliability or speed bounds). *)

val tricrit :
  rel:Rel.params ->
  deadline:(float[@units "time"]) ->
  Mapping.t ->
  (float[@units "energy"])
(** [max(relaxation, per_task)].

    @raise Invalid_argument if a root-bracketing step finds no sign change (degenerate reliability or speed bounds). *)
