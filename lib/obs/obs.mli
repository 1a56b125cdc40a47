(** Solver telemetry: named counters and wall-clock timers behind one
    process-wide toggle.

    The paper's headline results are complexity claims — the
    VDD-HOPPING LP is polynomial, the TRI-CRIT heuristics avoid the
    exponential subset enumeration — so the interesting quantity is
    {e solver work}: simplex pivots, LP solves, Newton iterations,
    subsets explored.  This module gives every hot path a place to
    report that work without paying for it when nobody is looking:

    - everything is {b disabled by default}; when disabled, a counter
      bump is a single load-test-branch and [time] runs the thunk
      directly (< 2 % overhead on the instrumented paths);
    - handles are created once at module-initialisation time
      ([counter]/[timer] memoise by name), so the hot path never
      touches a hashtable;
    - state is global and process-wide, matching how the CLI tools
      use it: enable, run the solve, snapshot, render.

    {b Domain-safe.}  The toggle and the clock are atomic; counter and
    timer cells are atomic integers (durations accumulate in integer
    nanoseconds), so concurrent increments from several domains are
    never lost, and no state is kept per domain.  The name->handle
    registries are mutex-guarded on the cold find-or-create and
    snapshot paths only.  [reset] and [set_clock] are meant for
    quiescent points (between runs): concurrent measurements straddle
    the epoch boundary but nothing is corrupted. *)

(** {1 Toggle} *)

val enable : unit -> unit
val disable : unit -> unit

val reset : unit -> unit
(** Zero every counter and timer.  Existing handles remain valid.
    Call between runs, when no other domain is mid-measurement. *)

(** {1 Clock} *)

val now : unit -> float
(** Seconds from the current clock (default [Unix.gettimeofday]). *)

val set_clock : (unit -> float) -> unit
(** Substitute the time source, e.g. a true monotonic clock or a fake
    clock in tests.  Negative steps are clamped to zero at
    accumulation time, so timers are monotone even under a stepping
    wall clock. *)

(** {1 Counters} *)

type counter

val counter : string -> counter
(** Find-or-create the counter registered under [name].  Call once per
    call site, at module initialisation. *)

val incr : counter -> unit
val add : counter -> int -> unit

val value : counter -> int
(** Current count (readable even while disabled). *)

(** {1 Timers} *)

type timer

val timer : string -> timer
(** Find-or-create, like {!counter}. *)

val time : timer -> (unit -> 'a) -> 'a
(** Run the thunk, accumulating its wall-clock duration and bumping
    the invocation count.  Exceptions propagate; the duration is still
    recorded.  When disabled, runs the thunk with no clock reads. *)

val timer_total : timer -> float
(** Accumulated seconds. *)

val timer_count : timer -> int

(** {1 Snapshots and rendering} *)

type timer_stat = { total : float; count : int }

type snapshot = {
  counters : (string * int) list;  (** sorted by name; zero entries omitted *)
  timers : (string * timer_stat) list;  (** sorted by name; idle timers omitted *)
}

val snapshot : unit -> snapshot

val render_text : snapshot -> string
(** Aligned human-readable listing: counters, then timers with total,
    count and mean. *)

val pp_duration : float -> string
(** [1.5e-4] ↦ ["150.000 us"] — shared by {!render_text} and
    [eslint --stats]. *)
