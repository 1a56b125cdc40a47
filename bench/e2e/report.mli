(** The result document, schema [esched-bench/4]: what one [run] or
    [trace] of one workload measured, the machine it ran on, and
    whether the outputs were correct.  Also the two readers of such
    documents: {!check} (is a document complete?) and {!compare} (did a
    set of runs regress against another, by the bounds in
    [BENCHMARK.json]?). *)

type workload = Serve_cold | Serve_hot | Pareto_sweep | Solve_large

val workloads : workload list
val workload_name : workload -> string
val workload_of_name : string -> workload option

(** {1 Metric catalogue} *)

val end_to_end : (string * string) list
(** Name and unit of every metric [run] reports, on every workload.
    Times are at the reference speed of {!Calib}. *)

val per_layer : (string * string) list
(** Name and unit of every metric [trace] reports. *)

val tail_min_samples : int
(** The fewest operations (windows) a serve workload's [lat_p90_ms] may
    rest on: 100, so that ten lie beyond it. *)

(** {1 Documents} *)

type metric = { name : string; unit : string; value : float; samples : int }

type machine = {
  cores : int;
  ocaml : string;
  git_rev : string option;  (** [None] outside a git checkout *)
}

val machine : unit -> machine
(** This machine: recommended domain count, compiler version and the
    checkout's [HEAD], read from [.git] in the current directory. *)

type t = {
  workload : workload;
  seed : int;
  mode : string;  (** ["run"] or ["trace"] *)
  seconds : float;  (** the requested measuring time; 0 for a trace *)
  jobs : int;
  rounds : int;
  kernel_ms : float;
      (** median time of the calibration kernel ({!Calib}) over the
          run, which converts the reported times back to the run's own
          speed; 0 for a trace *)
  attempted : int;  (** operations run: requests, fronts or solves *)
  failed : int;  (** of which answered wrongly, or not at all *)
  failures : string list;  (** the first few failure messages *)
  metrics : metric list;
}

val to_json : machine -> t -> Es_obs.Obs_json.t

val summary_line : t -> string
(** The one-line summary printed last: exactly the keys [correct],
    [attempted], [failed] and [metrics], each metric as
    [{"value": v, "unit": u}]. *)

val of_json : Es_obs.Obs_json.t -> (t, string) result

val check : Es_obs.Obs_json.t -> string list
(** Every problem that makes the document unusable: wrong schema, no
    machine block, an unknown workload or mode, a catalogue metric
    missing or with another unit, a sample count missing (or zero for
    an end-to-end metric), a serve workload's [lat_p90_ms] from fewer
    than {!tail_min_samples} operations.  Empty = the document is
    complete. *)

(** {1 Comparing two sets of runs} *)

type bound = { metric : string; higher_is_better : bool; bound : float }

val bounds : Es_obs.Obs_json.t -> (bound list, string) result
(** The [end_to_end] entries of a [BENCHMARK.json]. *)

val quartiles : float list -> float * float * float
(** First quartile, median and third quartile, by the exclusive method
    (Python's [statistics.quantiles(xs, n=4)]); a single value is all
    three.  @raise Invalid_argument on an empty list. *)

type verdict = Ok | Worse | Unresolved

val verdict_name : verdict -> string

type row = {
  r_workload : workload;
  r_metric : string;
  base_median : float;
  head_median : float;
  change : float;  (** relative change toward worse: > 0 is worse *)
  spread : float;  (** the wider of the two sets' quartile spreads over their medians *)
  r_bound : float;
  verdict : verdict;
}

val compare : bound list -> base:t list -> head:t list -> row list
(** One row per workload present in both sets (run documents only) and
    bounded metric.  [Worse] when the head median is
    worse than the base median by more than the bound; [Unresolved]
    when either set's spread is wider than the bound, unless every head
    run beats every base run; [Ok] otherwise. *)
