(** Small floating-point helpers shared across the numeric code. *)

val approx_equal : ?rel:float -> ?abs:float -> float -> float -> bool
(** [approx_equal a b] holds when [a] and [b] agree within the relative
    tolerance [rel] (default [1e-9]) or the absolute tolerance [abs]
    (default [1e-12]). *)

val clamp : lo:float -> hi:float -> float -> float
(** Clamp a value into [\[lo, hi\]].  Requires [lo <= hi]. *)

val cube : float -> float
(** [cube x = x *. x *. x]. *)

val square : float -> float
(** [square x = x *. x]. *)

val cbrt : float -> float
(** Real cube root, defined for all signs. *)

val sum : float array -> float
(** Kahan-compensated sum. *)

val sum_by : ('a -> float) -> 'a list -> float
(** Compensated sum of [f x] over the list. *)
