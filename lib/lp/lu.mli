(** Sparse LU factorisation of a simplex basis, with product-form
    (eta-file) updates.

    The factorisation is left-looking Gilbert–Peierls with partial
    pivoting: each basis column is solved against the already-built
    [L] by a depth-first search over its pattern, so factor time is
    proportional to arithmetic work, not m².  After a pivot the basis
    is updated in product form — [B·E] with [E] an identity whose
    column [p] is [w = B⁻¹ a_enter] — and {!Revised} refactorises from
    scratch once the eta file grows past its threshold or an update
    looks numerically unsafe.

    Buffer contract: a [t] owns every array its kernels need.  [L] and
    [U] are stored column after column in flat pools, as the eta file
    is.  The factorisation scratch and the three pools are reused by
    {!refactor} and {!update}, and {!ftran} and {!btran} write into a
    result buffer the caller passes, so neither a pivot nor a
    refactorisation allocates once the pools have grown to the solve's
    working size.  A [t] belongs to one solve: nothing is shared
    between solves or domains. *)

type t
(** A factorisation [P·B = L·U] plus an ordered eta file and the
    buffers both are built in. *)

exception Singular
(** The supplied basis columns are linearly dependent (to working
    precision).  {!Revised.solve_from} treats this as "the warm basis
    is stale" and falls back to a cold start. *)

exception Unstable
(** A product-form update would divide by a pivot too small relative
    to the column — the caller must refactorise instead. *)

val factor : Sparse.t -> art_sign:float array -> int array -> t
(** [factor sp ~art_sign basis] factorises the m×m matrix whose k-th
    column is column [basis.(k)] of [sp], read straight from its CSC
    arrays.  An entry [j ≥ Sparse.n_cols sp] names the virtual unit
    artificial [art_sign.(i)·e_i] of row [i = j − n_cols] (see
    {!Revised}).

    @raise Singular if the basis is numerically rank-deficient.
    @raise Invalid_argument if [basis] does not have length [m]. *)

val refactor : t -> int array -> unit
(** [refactor t basis] factorises a new basis over the same columns in
    place, reusing [t]'s buffers, and empties the eta file.  After
    [Singular] the factors are unusable until a successful
    [refactor].

    @raise Singular as {!factor}.
    @raise Invalid_argument as {!factor}. *)

val ftran : t -> float array -> float array -> unit
(** [ftran t b x] solves [B x = b].  [b] is in row space and is
    consumed as scratch; [x], indexed by basis position, is
    overwritten with the result.  Both have length [m] and must be
    distinct. *)

val btran : t -> float array -> float array -> unit
(** [btran t c y] solves [Bᵀ y = c].  [c] is indexed by basis position
    and is consumed as scratch; [y], in row space, is overwritten with
    the result.  Both have length [m] and must be distinct. *)

val update : t -> pos:int -> w:float array -> unit
(** [update t ~pos ~w] records the replacement of the basis column at
    [pos], where [w] is {!ftran} of the entering column (position
    space).  One pass over [w]; the nonzeros are copied into the eta
    pool, so [w] may be reused afterwards.

    @raise Unstable if [w.(pos)] is too small for a safe update. *)

val n_updates : t -> int
(** Number of eta transforms accumulated since factorisation. *)
