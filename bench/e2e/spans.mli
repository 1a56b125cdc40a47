(** In-memory spans for the traced run.

    A span is one timed call into a layer, recorded by the benchmark
    around the library's public functions.  Every span carries the id
    of the request (or operation) it belongs to; the [request] span of
    that id is the parent of all the others.  Nothing is written until
    {!write_ndjson}, so recording costs two clock reads and a list
    cell. *)

val root : string
(** ["request"], the name of the per-request parent span. *)

type t

val create : unit -> t

val record : t -> name:string -> rid:int -> t0:float -> t1:float -> unit
(** Record a finished span of request (or operation) [rid], from [t0]
    to [t1] in {!Es_obs.Obs.now} seconds — e.g. one timed on a pool
    worker and handed back at the join. *)

val time : t -> name:string -> rid:int -> (unit -> 'a) -> 'a
(** [time t ~name ~rid f] runs [f] and records it as a span.  A span
    whose thunk raises is not recorded. *)

val self_times : t -> (string * float * int) list
(** Per span name: the summed self time in seconds and the span count,
    sorted by name.  A child's self time is its duration; a [request]
    span's is its duration minus the part its children cover. *)

val write_ndjson : t -> string -> unit
(** One JSON object per span and line: [id], [parent] (the id of the
    request's [request] span, [null] for that span itself), [name],
    [rid], [start_s] and [end_s].

    @raise Sys_error when the file cannot be written. *)
