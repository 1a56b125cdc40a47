(** Structural solution cache.

    Two tables, both keyed by {!Canon} encodings (full encodings, so
    key equality is structural equality — see {!Canon}):

    - {b exact}: keyed by [exact_key]; stores the complete outcome
      (solved payload in canonical task order, or the infeasible /
      rejected verdict).  A hit is answered by permuting the cached
      arrays into the request's labeling — energy and makespan are
      label-invariant scalars, so no re-solve and no schedule
      reconstruction happens.  An entry renders its numbers once, at
      its first hit, and keeps the literals; every hit's answer carries
      them permuted the same way ({!Protocol.solved}'s [literals]), so
      no hit formats a number.
    - {b scaled}: keyed by [scaled_key] (CONTINUOUS, no reliability);
      stores the canonical-order optimal speeds together with the
      cached instance's total work [W₀] and deadline [D₀].  An entry
      is written only when the cached solution is {e exact} and
      strictly {e interior} to its [fmin]/[fmax] bounds: interiority
      means the bound multipliers are zero, so the cached point is the
      optimum of the unbounded convex program, which is
      scale-covariant — scaling work by [c] and deadline by [d] maps
      the optimum to speeds [×c/d] (energy [×c³/d²], the D⁻² law
      checked by escheck's deadline-scaling relation).  At lookup time
      the rescaled speeds are re-validated ({!Validate.check} against
      the request's own deadline, bounds and model); if the rescaled
      point is admissible it is optimal for the request by the same
      convexity argument, otherwise the request falls through to a
      cold solve.

    Both tables are FIFO-bounded.  The cache is single-domain state:
    the server does all lookups and inserts on the coordinating
    thread, never inside pool workers. *)

type t

val create : ?capacity:int -> unit -> t
(** [capacity] bounds each table's entry count (default 4096); the
    oldest insertion is evicted first. *)

type found = {
  status : Protocol.status;
  disposition : Protocol.disposition;  (** [Hit] or [Rescale_hit] *)
}

val lookup :
  t ->
  inst:Protocol.instance ->
  order:Dag.task list array ->
  canon:Canon.t ->
  found option
(** Exact key first, then the scaled table.  [None] means cold: no
    entry, or a scaled entry whose rescaling failed re-validation.
    Total — internal schedule reconstruction failures count as misses.
    Maintains the [serve.cache.{hit,miss,rescale_hit,rescale_reject}]
    counters. *)

val insert :
  t -> inst:Protocol.instance -> canon:Canon.t -> Protocol.status -> unit
(** Record a cold outcome.  [Solved], [Infeasible] and [Rejected] go
    to the exact table; [Solved] additionally feeds the scaled table
    when eligible (see above).  [Shed] and [Over_budget] are never
    cached.  Maintains [serve.cache.{insert,evict}]. *)
