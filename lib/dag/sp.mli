(** Series-parallel task graphs.

    The CONTINUOUS BI-CRIT closed forms of the paper (Section III)
    apply to special execution-graph structures — chains, forks and,
    more generally, series-parallel (SP) graphs.  This module gives SP
    graphs a native tree representation on which those closed forms are
    recursions, plus conversion to/from plain DAGs.

    Composition semantics (node series-parallel digraphs):
    - [Leaf w] is a single task of weight [w];
    - [Series (a, b)] runs [a] then [b]: an edge from every sink of [a]
      to every source of [b];
    - [Parallel (a, b)] runs [a] and [b] independently. *)

type t =
  | Leaf of float  (** a single task with its weight *)
  | Series of t * t
  | Parallel of t * t

val leaf : float -> t
val series : t list -> t
(** Right fold of [Series]; requires a non-empty list.

    @raise Invalid_argument on an empty series or parallel composition. *)

val parallel : t list -> t
(** Right fold of [Parallel]; requires a non-empty list.

    @raise Invalid_argument on an empty series or parallel composition. *)

val chain : float array -> t
(** [chain ws] is the linear chain [w₀ ; w₁ ; …].

    @raise Invalid_argument on an empty series or parallel composition. *)

val fork : root:float -> float array -> t
(** [fork ~root ws] is the fork graph of the paper's theorem: source
    [root] followed by the parallel children [ws].

    @raise Invalid_argument on an empty series or parallel composition. *)

val n_tasks : t -> int
val total_weight : t -> float

val weights : t -> float array
(** Leaf weights in left-to-right order — the task ids of {!to_dag}. *)

val to_dag : t -> Dag.t
(** Expand to a plain DAG.  Task ids follow left-to-right leaf order.

    @raise Invalid_argument on a malformed task graph (nonpositive weight, out-of-range or self-loop edge, or cycle). *)

val of_dag : Dag.t -> t option
(** Best-effort SP recognition: weakly-connected components become
    parallel branches; a topological prefix whose outgoing cross edges
    form a complete bipartite graph [sinks(prefix) × sources(rest)]
    becomes a series cut.  Recognises every graph produced by
    {!to_dag}; returns [None] for non-SP DAGs.

    @raise Invalid_argument on an empty series or parallel composition. *)

val pp : Format.formatter -> t -> unit
