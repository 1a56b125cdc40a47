(** Deterministic multicore execution combinators.

    Every parallel sweep here is a list of whole, independent solves —
    the deadlines of an energy/deadline front, Monte-Carlo replicas,
    the cold requests of a serving window, the rows of an experiment
    table — and each one is a pure function of its inputs.  These
    combinators run such lists on a {!Pool} of reusable domains while
    keeping the {b sequential semantics observable}: results come back
    in submission order, the RNG stream of each item is derived up
    front with [Rng.split] (never from a shared generator mid-flight),
    and a failure is re-raised at the join point carrying the index of
    the item that caused it.  Consequently the output of a sweep is
    byte-identical whether it ran on 1 domain or N — parallelism is a
    pure wall-clock optimisation, never a semantic knob.

    {b Contract.}  Each item is one pool task; there is no chunk size
    and no timeout.  A list runs inline, in order, in the calling
    domain when
    - [?pool] is [None] (the default): the reference semantics;
    - it has fewer than two items: a pool round trip would only add
      latency to a single item;
    - the call comes from inside a pool worker (see {!Pool.in_worker}):
      nested parallelism degrades to sequential execution instead of
      deadlocking on a queue the caller's own worker must drain.

    Otherwise every item is submitted to the pool, and the telemetry
    counter [par.chunk.tasks] rises by one per item.  A pool task costs
    about a microsecond, so a caller whose items are cheaper than that
    groups them itself, as [Pareto.bicrit_vdd_front] does with its
    25-deadline blocks.

    Determinism contract: for a pure [f] and any [?pool],
    [parallel_map ?pool f xs = List.map f xs].  Effects inside [f] run
    concurrently and must be independent per item — telemetry counters
    ({!Es_obs.Obs}) are safe, shared mutable work-state is not. *)

exception Task_error of { index : int; exn : exn; backtrace : string }
(** An item raised: [exn] is the original exception, [index] the
    0-based position of the failing item.  Every item runs before the
    join raises, and when several fail the lowest index wins —
    independently of scheduling, and on the inline path too. *)

val parallel_map : ?pool:Pool.t -> ('a -> 'b) -> 'a list -> 'b list
(** [parallel_map ?pool f xs] is [List.map f xs], with each [f x] run as
    its own pool task.  If any [f x] raises, the join raises
    {!Task_error} for the lowest failing index. *)

val map_seeded :
  ?pool:Pool.t ->
  rng:Es_util.Rng.t ->
  (Es_util.Rng.t -> 'a -> 'b) ->
  'a list ->
  'b list
(** [map_seeded ~rng f xs] gives each item its own generator, derived
    with [Rng.split rng] {e up front, in list order} — so the streams
    the items consume are a function of the input list alone, never of
    scheduling.  This is the only safe way to use randomness under
    {!parallel_map}: a shared generator mutated from several domains
    would tear its state and destroy reproducibility. *)
