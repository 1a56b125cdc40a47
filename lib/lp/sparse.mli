(** Column-compressed (CSC) standard form of an LP.

    [min obj·x  s.t.  A x (≤|=|≥) b,  x ≥ 0] is stored column-major
    after appending one slack (+1, for [≤]) or surplus (−1, for [≥])
    column per inequality row.  The column structure depends only on
    the rows' coefficients and senses — never on the right-hand side —
    so a basis found at one [b] is a structurally valid starting basis
    at any other [b]; {!with_rhs} plus {!Revised.resolve} is the
    warm-start path the Pareto deadline sweeps use: one solver per
    sweep, re-solved at each restated right-hand side.

    This module is pure data: {!Revised} does the pivoting, and the
    dense reference implementation of the tests, [Dense_simplex],
    ignores it. *)

type relation = Le | Eq | Ge

type constr = { coeffs : float array; relation : relation; rhs : float }
(** One row [coeffs · x (≤|=|≥) rhs] with one entry per structural
    variable, exactly as accepted by {!of_rows}: the dense row type
    {!Problem.constraints}, [Es_check.Lp_cert] and the tests' dense
    reference [Dense_simplex] share. *)

type sparse_row = { nonzeros : (int * float) list; relation : relation; rhs : float }
(** One row [Σ v·x_j (≤|=|≥) rhs] given by its nonzeros [(j, v)]: each
    structural column [j] at most once, in any order. *)

type t
(** An immutable standard-form problem. *)

val of_sparse_rows : obj:float array -> sparse_row list -> t
(** Build the CSC form — the one constructor.  Rows keep their input
    order (duals are reported against it); each column's entries come
    out in increasing row order.  Entries are stored as given, so the
    caller drops the zeros.

    @raise Invalid_argument if a column index is outside
    [0 .. Array.length obj − 1]. *)

val of_rows : obj:float array -> constr list -> t
(** {!of_sparse_rows} over dense rows: drops each row's zero
    coefficients and builds the same CSC form.

    @raise Invalid_argument if a row's length differs from [obj]'s. *)

val with_rhs : t -> float array -> t
(** Same columns, senses and objective with a fresh right-hand side —
    an O(m) copy sharing the column arrays.  This is how a deadline
    sweep restates "the same LP at a new deadline".

    @raise Invalid_argument if the length differs from the row count. *)

val same_columns : t -> t -> bool
(** Whether two problems have the same columns and objective, so that
    they differ at most in their right-hand side: at once when the
    column arrays are shared ({!with_rhs}), else entry for entry (an
    LP rebuilt the same way).  {!Revised.resolve} accepts exactly
    these. *)

val m : t -> int
(** Row count. *)

val n_struct : t -> int
(** Structural (caller-visible) variable count. *)

val n_cols : t -> int
(** Structural + slack/surplus columns; {!Revised} additionally treats
    indices [n_cols .. n_cols + m − 1] as virtual unit artificials. *)

val nnz : t -> int
(** Stored nonzeros. *)

val slack_col : t -> int -> int
(** The slack/surplus column appended for row [i], or [-1] on [Eq]
    rows.  {!Revised} seeds its initial basis from these. *)

val row_relation : t -> int -> relation
(** Sense of row [i], in input order. *)

val rhs : t -> float array
(** Right-hand side, a fresh copy in row order. *)

val obj : t -> int -> float
(** Objective coefficient of a column (0 on slack columns). *)

val blit_rhs : t -> float array -> unit
val blit_obj : t -> float array -> unit
(** [blit_rhs t dst] copies the right-hand side into [dst.(0 .. m − 1)]
    and [blit_obj t dst] the objective into [dst.(0 .. n_cols − 1)],
    with no allocation: {!Revised} reloads both into its own buffers
    at every re-solve.

    @raise Invalid_argument if [dst] is too short. *)

val col_ptr : t -> int array
val row_idx : t -> int array
val col_val : t -> float array
(** The CSC arrays themselves, shared, not copied: column [j]'s
    nonzeros are [(row_idx.(k), col_val.(k))] for [k] from
    [col_ptr.(j)] to [col_ptr.(j + 1) − 1], in increasing row order.
    {!Lu} and {!Revised} scan them in their inner loops so that
    pricing and factorisation allocate nothing; callers must not write
    to them. *)
