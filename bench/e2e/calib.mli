(** Host-speed calibration.

    The machine this benchmark was built on runs memory-bound code up to
    twice as slow for stretches of a fraction of a second to minutes.  A
    fixed computation of the benchmark's own — hashing, allocating and
    sorting, nothing from the library under test — slows down with it,
    so an operation's wall time divided by the kernel's wall time
    measured next to it varies between runs far less than the wall time
    itself.  The end-to-end times are such quotients, multiplied by
    {!reference_s}: seconds on a host where the kernel takes
    {!reference_s}. *)

type t

val reference_s : float
(** 2 ms, about the kernel's median time on the machine the benchmark
    was built on. *)

val at_reference : kernel:float -> float -> float
(** [at_reference ~kernel wall]: [wall] seconds measured next to kernel
    runs of [kernel] seconds, in seconds at the reference speed. *)

val create : unit -> t
(** No samples yet. *)

val sample : t -> unit
(** Run the kernel once and record its wall time, then clear the minor
    heap of its garbage so that the next operation does not collect
    it. *)

val due : t -> interval:float -> bool
(** Whether [interval] seconds have passed since the last sample, or
    there is none. *)

val count : t -> int
(** Samples recorded so far. *)

val around : t -> int array -> float array
(** [around t marks]: for each mark, the {!count} taken just before an
    operation started, the median wall time in seconds of the five
    samples before the operation and the five after it (fewer at either
    end of the run).  @raise Invalid_argument on a mark of 0 or above
    {!count}. *)

val median_ms : t -> float
(** The median kernel time in milliseconds, 0 without samples. *)
