(** Fixed-size domain pool over sharded work-stealing deques.

    Workers are spawned once at {!create} and reused for every task
    until {!shutdown}: spawning a domain costs orders of magnitude
    more than running a typical sweep repetition, so the pool
    amortises it across the whole experiment run.

    Each worker owns a private mutex-guarded deque; submission
    distributes tasks round-robin across the deques and a worker whose
    deque runs dry steals from the others, so no single lock is on the
    hot path ({!submit_batch} takes each shard lock once per batch,
    not once per task).  Idle workers park on a condition variable
    that is signalled per new task and broadcast only at shutdown.
    Per-worker executed/stolen task counts and pool-wide park/batch
    counts are reported through [Es_obs] ([par.pool.*]).

    Tasks are [unit -> unit] thunks; they may run in any order and a
    task must not raise: the combinators in {!Par} wrap user functions
    so exceptions are captured and re-raised at the join point; a raw
    {!submit} task that does raise is recorded and re-raised at
    {!shutdown} rather than silently killing a worker. *)

type t

val create : domains:int -> unit -> t
(** [create ~domains ()] spawns [domains] worker domains parked on
    empty deques.  Requires [domains >= 1].  Keep [domains] at or
    below [Domain.recommended_domain_count () - 1] for throughput;
    more is legal (they time-share). *)

val size : t -> int
(** Number of worker domains. *)

val submit : t -> (unit -> unit) -> unit
(** Enqueue one task on the next shard (round-robin) and wake at most
    one parked worker.  @raise Invalid_argument after {!shutdown}. *)

val submit_batch : t -> (unit -> unit) array -> unit
(** [submit_batch pool tasks] enqueues the whole batch, interleaving
    it across the worker deques (task [j] of the batch lands on shard
    [(start + j) mod domains]) with one lock acquisition per shard,
    then wakes at most [Array.length tasks] parked workers.  This is
    what the {!Par} combinators use, one task per item: the batch
    keeps the locking per shard, not per task.
    @raise Invalid_argument after {!shutdown}. *)

val shutdown : t -> unit
(** Graceful shutdown: workers drain every deque (their own and by
    stealing), then exit and are joined.  Idempotent.  If any raw
    {!submit} task raised, the first such exception is re-raised here
    (combinator-wrapped tasks never raise). *)

val with_pool : domains:int -> (t -> 'a) -> 'a
(** [with_pool ~domains f] runs [f] with a fresh pool and shuts it
    down afterwards, whether [f] returns or raises. *)

val in_worker : unit -> bool
(** [true] when called from inside a pool worker.  {!Par} combinators
    use this to run nested parallelism inline instead of deadlocking
    on a deque their own worker must drain. *)
