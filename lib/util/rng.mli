(** Deterministic pseudo-random number generation.

    All stochastic components of the library (workload generators, the
    fault-injection simulator, randomized experiments) draw from this
    module rather than from [Stdlib.Random], so that every experiment is
    reproducible from a single integer seed.  The generator is
    xoshiro256** seeded through splitmix64, which is the standard
    seeding procedure recommended by the xoshiro authors. *)

type t
(** Mutable generator state. *)

val create : seed:int -> t
(** [create ~seed] builds a fresh generator.  Equal seeds yield equal
    streams. *)

val split : t -> t
(** [split t] derives a new generator from [t], advancing [t].  The two
    streams are statistically independent; use this to give each
    experiment repetition its own stream. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t n] is uniform in [\[0, n)].  Requires [n > 0]. *)

val float : t -> float -> float
(** [float t x] is uniform in [\[0, x)]. *)

val uniform_in : t -> float -> float -> float
(** [uniform_in t lo hi] is uniform in [\[lo, hi)].  Requires
    [lo <= hi]. *)

val bool : t -> bool
(** Fair coin. *)

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p]. *)

val gaussian : ?mu:float -> ?sigma:float -> t -> float
(** Normal deviate via Box–Muller.  Defaults: [mu = 0.], [sigma = 1.]. *)

val exponential : t -> rate:float -> float
(** Exponential deviate with the given rate (mean [1/rate]).  Used by
    the fault injector. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val choice : t -> 'a array -> 'a
(** Uniformly random element.  Requires a non-empty array. *)

val sample_weights : t -> n:int -> lo:float -> hi:float -> float array
(** [sample_weights t ~n ~lo ~hi] draws [n] independent task weights
    uniform in [\[lo, hi)]. *)
