(** Descriptive statistics over float samples, used by the experiment
    harness and the benchmarks to summarise repeated runs. *)

val quantile : float array -> float -> float
(** [quantile xs q] for [q] in [\[0, 1\]], linear interpolation between
    order statistics.  Requires a non-empty array. *)

val median : float array -> float
(** [quantile xs 0.5]. *)

val geometric_mean : float array -> float
(** Geometric mean; all samples must be positive.  Used for ratio
    aggregation across heterogeneous instances. *)
