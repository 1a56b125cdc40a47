(** Structural canonicalization of solve requests — the cache key.

    Two requests that are the same instance up to a renaming of task
    ids (and of processor ids) must hit the same cache line; two
    requests whose task graphs additionally differ only by a uniform
    work factor and a different deadline are {e scaled-equivalent}
    under the CONTINUOUS model and can be answered by rescaling (the
    D⁻²/w³ laws checked by escheck's deadline-/work-scaling
    relations).

    Canonical labeling is colour refinement (1-WL) over the task
    graph {e and} the processor chains, on int colours.  The initial
    colour of a task is the rank of (weight class, indegree, outdegree,
    chain rank), where the weight class ranks the normalized weight
    [w/W] rounded to 38 significant bits.  Each pass ranks the
    signatures (own colour, sorted successor colours, sorted
    predecessor colours, next and previous colour on the chain)
    lexicographically, until the number of classes stops growing.
    When symmetry leaves ties, individualization branches on each
    member of the smallest tied class (the lowest colour among equal
    sizes; the colours stay dense ranks, so a search node that
    refinement cannot split costs one pass) and keeps the lowest
    leaf: compared by weight class per
    canonical position, then the sorted canonical edges, the sorted
    canonical chains and the exact weights.  The result is a
    permutation of task ids that is invariant under relabeling, so the
    canonical encodings below are too.

    Keys are the {e full} canonical encodings in length-prefixed
    binary — every int at 64 bits, every float as its 64 bits — not
    digests: key equality is structural equality, never a hash
    collision.

    - {!exact_key} encodes everything the answer depends on: canonical
      structure, exact weights, total work, processor chains and count,
      speed model parameters, deadline, reliability parameters.
    - {!scaled_key} exists only for CONTINUOUS BI-CRIT requests; it
      encodes the canonical structure with weights {e normalized by
      the total work} and rounded to 38 significant bits, and {e
      omits} the deadline, the total work and the [fmin]/[fmax]
      bounds — whether a cached optimum may be rescaled into this
      instance's bounds is decided at lookup time ({!Cache}), not by
      the key.  Work scaled by a power of two leaves every normalized
      weight bit for bit unchanged, so the scaled key always agrees.
      Under any other factor a normalized weight that sits at a
      rounding boundary of the grid may round the other way and split
      the scaled key: about 1 random instance ([Es_check.Gen]) in
      10,000 under factors drawn from [\[0.5, 3)].  A split costs a
      cold solve and never gives a wrong hit. *)

type t = {
  perm : int array;  (** [perm.(i)] = canonical position of task [i] *)
  exact_key : string;
  scaled_key : string option;
  total_work : (float[@units "work"]);
}

val of_instance : order:Dag.task list array -> Protocol.instance -> t
(** Canonicalize an instance together with its resolved per-processor
    orders (see {!Protocol.resolve_order}).  Deterministic and total
    for any structurally valid instance.  The search stops after 1000
    refinement passes; a pathological symmetric graph (six equal
    independent tasks on six processors already does) then keeps the
    lowest leaf found so far, or the identity labeling if none was
    reached, and bumps the [serve.canon.budget_exhausted] counter.
    That is still sound (keys remain exact encodings), merely blind to
    some relabeled duplicates. *)
