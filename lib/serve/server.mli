(** The serving engine: batched request processing over a structural
    cache, decoupled from transport so the bench harness can drive it
    in-process and [esservd] can wrap it around stdin/stdout or a
    Unix-domain socket.

    {b Batching.}  {!run} reads up to [batch] lines, hands them to
    {!process_batch}, writes the responses (one line each, in request
    order) and flushes — so a client that pipes its whole session and
    half-closes (what the cram tests and [esservd --connect] do) gets
    every answer; an interactive client wanting per-request turnaround
    uses [--batch 1].

    {b Admission control.}  Within a batch window the first [queue]
    well-formed requests are admitted; the rest are answered
    [status = "shed"] without being canonicalized or solved.  Malformed
    lines are answered immediately with [status = "error"] and do not
    consume admission slots.  The bound is positional, so a given
    input trace sheds the same requests on every run.

    {b Caching.}  Admitted requests are looked up sequentially, in
    request order, against the cache state left by the {e previous}
    batch.  A byte-verbatim front table is looked up first, before the
    line is parsed: it maps a request line that was solved, found
    infeasible or rejected by the solver to its ["cache":"hit"]
    response line, rendered once at the first repeat, so a repeated
    line skips parsing, canonicalization and rendering (a shed repeat
    echoes the stored id).  Misses
    are solved in parallel on the pool ({!Es_par.Par.parallel_map}:
    order-preserving, exception-safe) and inserted back in request
    order after the join.  Consequently the response stream for a
    given input trace is byte-identical whatever the pool size; the
    serve tests compare it against a 2-domain pool.

    {b Self-check.}  With [selfcheck = k > 0], every [k]-th
    rescale-hit (counted deterministically in admission order) is
    {e also} re-solved cold during the parallel phase; the response
    keeps the rescaled values and reports ["self_check": "ok"|"fail"]
    (energy within 1e-5 relative, speeds within 1e-4).  Disagreements
    bump [serve.selfcheck.fail].

    Per-request service walls are kept, tagged by cache disposition,
    for the latest {!sample_window} requests ({!samples}); the p50/p99
    that [esservd --stats] prints cover that window.
    The [status = "over-budget"] path compares the solve wall against
    the request's [budget_s] after the fact; it is the one
    machine-dependent response and is excluded from byte-identity
    traces. *)

type config = {
  jobs : int;  (** pool width the transport should create *)
  batch : int;  (** max requests per batch window *)
  queue : int;  (** admission bound per batch window *)
  cache_capacity : int;
  selfcheck : int;  (** re-solve every k-th rescale hit; 0 = off *)
}

val default_config : config
(** jobs 1, batch 8, queue 64, cache 4096, selfcheck 0. *)

type t

val create : config -> t

val process_batch : t -> pool:Es_par.Pool.t option -> string list -> string list
(** One batch window: parse, admit, look up, solve misses on [pool]
    ([None] = inline), insert, render.  Returns one response line per
    input line, in order, without trailing newlines.  Total: every
    failure mode becomes an error response. *)

val run : t -> pool:Es_par.Pool.t option -> in_channel -> out_channel -> unit
(** Serve until end-of-input.  Flushes after every batch.

    @raise Sys_error when the transport channels fail (e.g. the peer
    closed the connection mid-write). *)

val sample_window : int
(** How many of the latest requests {!samples} keeps: 10 000, so a
    long-running server's memory does not grow with its request
    count. *)

val samples : t -> (string * (float[@units "time"])) list
(** Per-request service walls of the latest {!sample_window} requests,
    oldest first, tagged with the disposition name (["miss"], ["hit"],
    ["rescale-hit"]). *)
