(** Fixed-size domain pool over one FIFO queue.

    Workers are spawned once at {!create} and reused for every task
    until {!shutdown}: spawning a domain costs orders of magnitude
    more than running a typical sweep repetition, so the pool
    amortises it across the whole experiment run.

    Every worker takes the next task from one mutex-guarded queue and
    waits on one condition variable while it is empty.  Each pool task
    is a whole solve, so the lock has nothing to contend for.  On a
    2-core VM, [experiments all --seed 42 --jobs 2] submits 112 tasks
    in 12 batches, a 24-deadline BI-CRIT front (24 tasks of 55–95 µs)
    takes 1.3–2.3 ms inline, and a serving window holds at most
    [--batch] tasks (8 by default).  Pool-wide park and batch counts
    are reported through [Es_obs] ([par.pool.parks],
    [par.pool.submit_batches]).

    Tasks are [unit -> unit] thunks; they start in submission order as
    workers free up, and a task must not raise: the combinators in
    {!Par} wrap user functions so exceptions are captured and
    re-raised at the join point; a raw {!submit} task that does raise
    is recorded and re-raised at {!shutdown} rather than silently
    killing a worker. *)

type t

val create : domains:int -> unit -> t
(** [create ~domains ()] spawns [domains] worker domains waiting on
    the empty queue.  Requires [domains >= 1].  Keep [domains] at or
    below [Domain.recommended_domain_count () - 1] for throughput;
    more is legal (they time-share). *)

val size : t -> int
(** Number of worker domains. *)

val submit : t -> (unit -> unit) -> unit
(** Enqueue one task and wake at most one waiting worker.
    @raise Invalid_argument after {!shutdown}. *)

val submit_batch : t -> (unit -> unit) array -> unit
(** [submit_batch pool tasks] enqueues the whole batch, in order,
    under one lock acquisition, then wakes at most
    [min (Array.length tasks) domains] waiting workers.  This is what
    the {!Par} combinators use, one task per item.
    @raise Invalid_argument after {!shutdown}. *)

val shutdown : t -> unit
(** Graceful shutdown: workers drain the queue, then exit and are
    joined.  Idempotent.  If any raw {!submit} task raised, the first
    such exception is re-raised by the first call only
    (combinator-wrapped tasks never raise). *)

val with_pool : domains:int -> (t -> 'a) -> 'a
(** [with_pool ~domains f] runs [f] with a fresh pool and shuts it
    down afterwards, whether [f] returns or raises. *)

val in_worker : unit -> bool
(** [true] when called from inside a pool worker.  {!Par} combinators
    use this to run nested parallelism inline instead of deadlocking
    on a queue their own worker must drain. *)
