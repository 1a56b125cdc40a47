(** Seeded input generators for the four workloads.

    Every generator is a pure function of its seed and sizes: the same
    arguments give byte-identical request lines.  The seed draws the
    graphs, weights, speed menus and slack; the mix of request classes
    and the task counts are fixed by the sizes, so two seeds cost about
    the same to serve.  Every generated instance is feasible: its
    deadline is a slack factor above 1 times the makespan of its
    mapping with every task at [fmax]. *)

(** {1 Requests} *)

type kind =
  | Continuous
  | Vdd
  | Discrete_bb  (** few enough tasks for branch-and-bound *)
  | Discrete_round  (** too many tasks: round-up approximation *)
  | Incremental
  | Continuous_rel  (** TRI-CRIT heuristics *)
  | Vdd_rel  (** TRI-CRIT VDD-HOPPING, exact subset search *)

type request = {
  id : int;  (** the wire id, echoed in the response *)
  line : string;  (** the request as sent *)
  inst : Es_serve.Protocol.instance;  (** what the line encodes *)
  kind : kind;
}

val engine_class : Speed.t -> Rel.params option -> string
(** The engine family {!Solver.solve} dispatches a model (and
    reliability requirement) to: one of {!engine_classes}. *)

val engine_classes : string list
(** ["continuous"; "vdd"; "discrete"; "incremental"; "tricrit"]. *)

(** {1 serve-cold} *)

val cold_mix : (kind * int * (int * int)) list
(** Per request class: percent of the trace and task-count range. *)

val serve_cold : seed:int -> blocks:int -> per_block:int -> request array array
(** [blocks] blocks of [per_block] distinct requests, each block in the
    {!cold_mix} proportions; ids run from 0 through all blocks.  The
    request specs and their order do not depend on [seed], which draws
    the graphs, task weights and speed menus. *)

(** {1 serve-hot} *)

type variant =
  | Repeat  (** the base's line, byte for byte *)
  | Relabel of { sigma : int array }
      (** tasks renamed: new task [j] is base task [sigma.(j)]; the
          processors are rotated too *)
  | Rescale of { c : float; d : float }
      (** work ×c (a power of two), deadline ×d with [d/c] in
          [\[0.95, 1.05\]]; CONTINUOUS bases only *)

type hot_request = { hid : int; hline : string; base : int; variant : variant }

type hot = {
  bases : request array;
      (** CONTINUOUS at even indices, VDD-HOPPING at odd ones, each with
          an explicit mapping; a lower index is more popular *)
  trace : hot_request array;
      (** 40% repeats, 35% relabellings, 25% rescalings; the base is
          drawn with popularity [u^2.5] *)
}

val serve_hot :
  seed:int ->
  bases:int ->
  continuous_n:int * int ->
  vdd_n:int * int ->
  requests:int ->
  hot

(** {1 pareto-sweep} *)

type front_input = {
  mapping : Mapping.t;
  levels : float array;  (** VDD-HOPPING menu *)
  deadlines : float list;
      (** evenly spaced from 1.05 times the fmax makespan to 0.9 times
          the fmin makespan *)
}

val pareto : seed:int -> blocks:int -> sizes:int list -> points:int -> front_input list array
(** [blocks] blocks of one layered mapping on 4 processors per size
    (that many tasks), with [points] deadlines each; every block draws
    new graphs and menus.  Every menu has 5 levels and fmin = fmax/4. *)

(** {1 solve-large} *)

type large = { name : string; request : Solver.request }

val large :
  seed:int ->
  blocks:int ->
  continuous_tiles:int ->
  discrete_tiles:int ->
  vdd_tiles:int ->
  vdd_lu_tiles:int ->
  stencil:int ->
  large list array
(** [blocks] blocks of the same five instances: CONTINUOUS on tiled
    Cholesky, DISCRETE (round-up) on tiled LU, VDD-HOPPING on tiled
    Cholesky, on tiled LU and on a square wavefront stencil, all
    list-scheduled on 4 processors with a deadline 1.6 times the fmax
    makespan.  Graphs, task costs and menu are fixed; each block renames
    the tasks and rotates the processors, drawn from the seed. *)
