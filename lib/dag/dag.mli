(** Directed acyclic task graphs.

    The application model of the paper (Section II): [n] tasks
    [T₁ … Tₙ], task [i] carrying a computation weight [wᵢ], related by
    precedence edges.  Tasks are identified by dense integer ids
    [0 … n−1].  The structure is immutable after construction. *)

type task = int
(** Task identifier, [0 ≤ id < n]. *)

type t

val make : ?labels:string array -> weights:float array -> edges:(task * task) list -> t
(** [make ~weights ~edges] builds a DAG with [Array.length weights]
    tasks.  Weights must be strictly positive.  Duplicate edges are
    collapsed; self-loops or cycles raise [Invalid_argument], the edges
    being checked in list order.  [labels] (default ["T<i>"], formatted
    only when {!label} or {!pp} asks) are used by exports only.  The
    topological order is computed here, once, and kept.

    @raise Invalid_argument on a malformed task graph (nonpositive weight, out-of-range or self-loop edge, or cycle). *)

val add_chains : t -> task list array -> t
(** [add_chains t chains]: [t] with an edge from each task of every
    chain to the next one in it — with one chain per processor, a
    mapping's constraint DAG.  The result equals
    [make ~weights:(weights t) ~edges:(edges t @ pairs)], where [pairs]
    lists the chains' consecutive pairs in order, in its lists, its
    order and its errors, with no labels; only the pairs are checked,
    and each is merged into [t]'s sorted lists.

    @raise Invalid_argument as {!make} on a pair with an end out of
    range or equal ends, and ["Dag: cycle detected"] if the chains
    close a cycle. *)

val n : t -> int
(** Number of tasks. *)

val weight : t -> task -> float
(** Computation requirement [wᵢ]. *)

val weights : t -> float array
(** All weights (a fresh copy). *)

val label : t -> task -> string
(** The task's label: the one given to {!make}, else ["T<i>"]. *)

val succs : t -> task -> task list
(** Immediate successors, ascending. *)

val preds : t -> task -> task list
(** Immediate predecessors, ascending. *)

val edges : t -> (task * task) list
(** All edges: tails ascending, and each tail's heads descending. *)

val n_edges : t -> int

val sources : t -> task list
(** Tasks with no predecessor. *)

val sinks : t -> task list
(** Tasks with no successor. *)

val topological_order : t -> task array
(** A topological order (Kahn's algorithm, smallest-id-first, so the
    order is deterministic): a fresh copy of the order {!make}
    computed, which every DAG keeps. *)

val total_weight : t -> float
(** [Σ wᵢ]. *)

val is_edge : t -> task -> task -> bool

val map_weights : t -> (task -> float -> float) -> t
(** Same structure, and same topological order, with transformed
    weights. *)

val critical_path_length : t -> durations:float array -> float
(** Longest path through the DAG where task [i] contributes
    [durations.(i)]; the makespan lower bound on unbounded
    processors.  Folds over the stored order. *)

val earliest_start : t -> durations:float array -> float array
(** Earliest start time of every task under unlimited processors:
    one fold over the stored order, in each task's predecessor order. *)

val latest_start : t -> durations:float array -> deadline:float -> float array
(** Latest start times meeting [deadline]; may be negative when the
    deadline is infeasible even with unlimited processors. *)

val slack : t -> durations:float array -> deadline:float -> float array
(** Per-task float: [latest_start − earliest_start].  Tasks with zero
    slack are critical.  The parallel-oriented TRI-CRIT heuristic
    allocates re-executions by decreasing slack. *)

val transitive_reduction : t -> t
(** Remove every edge implied by a longer path: [(i, j)] goes when [j]
    is a descendant of another successor of [i].  Weights, labels and
    the topological order are preserved (on the reduced graph Kahn's
    pass makes every task ready at the same step), the kept edges keep
    their order, and [t] itself is returned when no edge goes.  A head ranked at most 62 tasks after
    its tail in a topological order is tested against a bit set of the
    descendants in that window, built from the successors' sets in
    O(1) per edge; a head further away by a marking DFS cut at its
    rank.  O(n + E) memory. *)

val reverse : t -> t
(** Flip every edge (used to derive join results from fork results).

    @raise Invalid_argument on a malformed task graph (nonpositive weight, out-of-range or self-loop edge, or cycle). *)

val pp : Format.formatter -> t -> unit
(** Debugging output: one line per task with successors. *)
