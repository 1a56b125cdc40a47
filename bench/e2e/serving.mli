(** Closed-loop load on {!Es_serve.Server}, and its traced mirror.

    One client sends a window of 2 request lines, waits for the
    responses, then sends the next window.  A request's latency is the
    wall time of its window. *)

val server : jobs:int -> Es_serve.Server.t
(** A fresh server with the daemon's defaults, windows of 2 lines and
    an admission bound that never sheds a full window. *)

type replay = {
  responses : string list;  (** every response line, in order *)
  latencies : float array;  (** seconds, one per window: the latency of its requests *)
}

val replay :
  ?between:(unit -> unit) -> Es_serve.Server.t -> pool:Es_par.Pool.t option -> string array -> replay
(** Send every line through {!Es_serve.Server.process_batch}; [between]
    runs before each window, off its clock. *)

(** {1 Traced mirror}

    The mirror answers the same windows by calling the public layer
    functions in the server's order — [Protocol.parse_line], the
    verbatim table, [Protocol.resolve_mapping], [Canon.of_instance],
    [Cache.lookup], [Solver.solve] on the pool through
    [Par.parallel_map], [Cache.insert], [Protocol.render] — and records
    a span around each.  Its responses are byte-identical to the
    server's. *)

type stats = {
  mutable requests : int;
  mutable verbatim_hits : int;
  mutable hits : int;  (** exact (relabelled) cache hits *)
  mutable hit_lookup_s : float;
  mutable rescale_hits : int;
  mutable rescale_lookup_s : float;
  mutable phases : int;  (** windows whose parallel phase solved something *)
  mutable phase_s : float;  (** summed wall of those phases *)
  solve_s : (string, float * int) Hashtbl.t;
      (** per engine class ({!Inputs.engine_classes}): summed solve
          wall and count *)
}

type mirror

val mirror : unit -> mirror
(** Fresh, empty state: cache and verbatim table. *)

val mirror_replay :
  mirror ->
  pool:Es_par.Pool.t option ->
  spans:Spans.t ->
  stats:stats ->
  string array ->
  replay
(** The traced counterpart of {!replay}.  The spans of request [i] of
    the array carry [rid = i]. *)

val new_stats : unit -> stats
