(** Dense LU with partial pivoting: {!Barrier}'s fallback for a Newton
    system whose sparse Cholesky ({!Chol}) meets a non-positive pivot.
    The system is then indefinite to working precision, and the
    pivoting LU still solves it. *)

exception Singular
(** Raised by {!solve} when no pivot of magnitude at least [1e-300]
    remains in a column. *)

val solve : float array array -> float array -> float array
(** [solve a b] is [x] with [a x = b], [a] square and given as rows.
    Neither argument is modified.

    @raise Singular if [a] is numerically singular. *)
