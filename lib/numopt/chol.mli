(** Sparse Cholesky factorisation [H = L·Lᵀ] for the Newton systems of
    {!Barrier}'s primal-dual method.

    Up-looking: row [i] of [L] is computed from the rows above it, in
    the natural variable order (no fill-reducing permutation).  The
    symbolic analysis — elimination tree, the row and column patterns
    of [L] — runs once per pattern ({!analyze}), in flat arrays and
    without sorting; each {!factor} then only fills in values, in time
    proportional to the arithmetic.

    Every sum runs in the order of the textbook dense factorisation
    ([l_ij = (h_ij − Σ_{k<j} l_ik·l_jk) / l_jj], [k] ascending) and of
    its two dense triangular solves, and only exact zeros are skipped,
    so factor and solve are bit-for-bit those of the dense code on the
    same lower triangle. *)

type t
(** A symbolic analysis together with the numeric factor of the last
    successful {!factor}. *)

exception Not_positive_definite
(** Raised by {!factor} when a pivot is not strictly positive. *)

val analyze : n:int -> row_ptr:int array -> col_idx:int array -> t
(** [analyze ~n ~row_ptr ~col_idx] takes the lower triangle of a
    symmetric [n × n] pattern by rows: row [i] is
    [col_idx.(row_ptr.(i)) .. col_idx.(row_ptr.(i + 1) − 1)], strictly
    ascending, every index at most [i] and the last one [i] itself. *)

val factor : t -> float array -> unit
(** [factor t h] factors the matrix whose lower-triangle values are
    [h], aligned with the pattern given to {!analyze}.  Only the lower
    triangle is read.

    @raise Not_positive_definite at the first non-positive pivot (NaN
    pivots pass, as in the dense code); the factor is then unusable
    until the next successful [factor]. *)

val solve : t -> float array -> float array
(** [solve t b] is [x] with [L·Lᵀ x = b] for the last factor: a
    forward solve by columns, then a backward solve that reads each
    column of [L] in ascending row order.  [b] is not modified. *)
