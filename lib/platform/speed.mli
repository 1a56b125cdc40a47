(** Speed models (Section II of the paper).

    A processor can run at different speeds; which values are
    admissible, and whether the speed may change in the middle of a
    task, is the speed model:

    - {b CONTINUOUS}: any real speed in [\[fmin, fmax\]];
    - {b DISCRETE}: a finite, arbitrarily spread set [f₁ < … < fₘ],
      one speed per task execution;
    - {b VDD-HOPPING}: the same finite set, but the processor may hop
      between speeds during a task, so any point of the convex hull of
      [(1/f, f²)] trade-offs is reachable;
    - {b INCREMENTAL}: evenly spaced speeds [fmin + i·δ ≤ fmax] — the
      "potentiometer knob" model. *)

type t =
  | Continuous of {
      fmin : (float[@units "freq"]);
      fmax : (float[@units "freq"]);
    }
  | Discrete of (float[@units "freq"]) array
      (** strictly increasing, positive *)
  | Vdd_hopping of (float[@units "freq"]) array
      (** strictly increasing, positive *)
  | Incremental of {
      fmin : (float[@units "freq"]);
      fmax : (float[@units "freq"]);
      delta : (float[@units "freq"]);
    }

val continuous : fmin:(float[@units "freq"]) -> fmax:(float[@units "freq"]) -> t
(** @raise Invalid_argument unless [0 < fmin <= fmax]. *)

val discrete : (float[@units "freq"]) array -> t
(** Sorts and deduplicates.  @raise Invalid_argument on empty input or
    non-positive speeds. *)

val vdd_hopping : (float[@units "freq"]) array -> t
(** Same validation as {!discrete}.

    @raise Invalid_argument on an empty speed set. *)

val incremental :
  fmin:(float[@units "freq"]) ->
  fmax:(float[@units "freq"]) ->
  delta:(float[@units "freq"]) ->
  t
(** @raise Invalid_argument unless [0 < fmin <= fmax] and [delta > 0]. *)

val fmin : t -> (float[@units "freq"])
(** Smallest admissible speed. *)

val fmax : t -> (float[@units "freq"])
(** Largest admissible speed. *)

val levels : t -> (float[@units "freq"]) array option
(** The admissible speed set for the three discrete models (for
    INCREMENTAL, the expanded grid), [None] for CONTINUOUS. *)

val admissible :
  ?tol:(float[@units "freq"]) -> t -> (float[@units "freq"]) -> bool
(** Whether a single-execution speed value is allowed by the model.
    Under VDD-HOPPING any value between [fmin] and [fmax] is reachable
    as a mix, so the check is the interval test. *)

val pp : Format.formatter -> t -> unit
