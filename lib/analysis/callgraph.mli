(** Conservative cross-module call graph over compiler-libs ASTs.

    Pass 1 of an eslint run feeds every [.ml] file into one graph;
    pass 2 ({!Par_rules}) asks reachability questions against it.  A
    node is a top-level [let] binding keyed ["Module.value"]; an edge
    goes to every identifier path the body mentions (reference is
    reachability — conservative over-approximation).  [module X =
    Path] aliases are expanded per file.  Identifiers that resolve to
    no node (stdlib, external libraries, local variables) are opaque
    terminal leaves: the graph assumes nothing about their effects,
    and the deny-lists of {!Par_rules} name the dangerous ones
    explicitly.  Functor applications and [open]-scoped bare
    identifiers are not tracked (DESIGN.md §9 caveats). *)

module SSet : Set.S with type elt = string

(** {1 Paths, identifiers and AST shapes shared by every pass} *)

val segments : string -> string list
(** Path segments of a file name (['\\'] read as ['/'], empty and
    ["."] segments dropped). *)

val in_lib : string list -> string -> bool
(** [in_lib dirs file]: does a [lib/<dir>] directory pair with [dir]
    in [dirs] occur anywhere in [file]'s path?  The one scope test of
    the analyzer: U003 ([\["core"; "platform"\]]), E007
    ([\["core"; "sched"; "sim"\]]) and the sanctioned owners
    ({!sanctioned}). *)

val sanctioned : string list
(** [\["par"; "obs"\]]: lib/par and lib/obs are the audited owners of
    domains, blocking joins and telemetry.  Reachability stops at their
    nodes ({!node_sanctioned}); their files are exempt from region
    scanning, P004 and the X/R rules. *)

val module_name_of_file : string -> string
(** ["lib/core/pareto.ml"] -> ["Pareto"] — dune's unwrapped module
    naming. *)

val flatten_longident : Longident.t -> string list option
(** Path segments of an identifier; [None] for functor application. *)

val last_segment : Longident.t -> string option
(** Last component of an identifier ([Queue.Empty] -> ["Empty"]);
    [None] for functor application. *)

val ident_name : Longident.t -> string option
(** Dotted name of an identifier with a leading [Stdlib.] stripped, so
    [Stdlib.compare] and [compare] are the same name while
    [Float.compare] is not; [None] for functor application. *)

val last_two_segments : string -> string
(** ["Es_par.Par.parallel_map"] -> ["Par.parallel_map"]. *)

val loc_tag : Location.t -> string
(** ["file:line"] of the location's start. *)

val hop : string * Location.t -> string
(** ["name@file:line"], one hop of a witness chain. *)

val first_positional : (Asttypes.arg_label * 'a) list -> 'a option
(** First unlabelled argument of an application. *)

val peel : Parsetree.expression -> Parsetree.expression
(** Strip type constraints and [fun (type a) ->] binders. *)

val string_payload : Parsetree.payload -> string option
(** The string of an attribute payload that is one string literal
    ([\[@lint.allow "E001"\]], [\[@units "energy"\]], a doc comment);
    [None] for any other payload. *)

val bound_names : Parsetree.expression -> SSet.t
(** Every name bound by any pattern under the expression (parameters,
    lets, match/try cases). *)

(** {1 The graph} *)

type t

type def = {
  d_file : string;  (** file that defines the binding *)
  d_loc : Location.t;  (** binding location *)
  d_expr : Parsetree.expression;  (** the bound expression *)
  d_params : string list;  (** outermost [fun]-chain parameter names *)
}

val create : unit -> t

val add_source : t -> file:string -> Parsetree.structure -> unit
(** Harvest one parsed implementation: top-level (and one-level
    nested-module) bindings become nodes, their referenced identifier
    paths become edges, [module X = Path] becomes a per-file alias. *)

val resolve : t -> file:string -> Longident.t -> string option
(** Canonical name of an identifier path as seen from [file]:
    alias-expanded, [Stdlib.]-stripped, bare names qualified with the
    file's module when that module defines them, dotted paths
    shortened to ["Parent.leaf"] when [Parent] is a module of the
    graph.  [None] only for [Lapply] (functor application). *)

val defs : t -> string -> def list
(** Definitions recorded under a node key — more than one when two
    files define modules with the same name (kept, conservatively). *)

val has_def : t -> string -> bool

val node_sanctioned : t -> string -> bool
(** True when the node has definitions and every one of them lives in
    a sanctioned owner ({!sanctioned}).  A module name defined both in
    lib/obs and elsewhere is not sanctioned: its other definitions are
    still analysed. *)

val edges : t -> string -> (string * Location.t) list
(** Resolved identifiers referenced by the node's body, deduped by
    name in first-occurrence order; the location is the first
    reference site (used as the witness-trace hop). *)

val nodes : t -> string list
(** Every node key, sorted. *)

val reachable : t -> roots:string list -> string list
(** Every name reachable from [roots] (roots included), following
    edges transitively; terminal names (no outgoing edges) are
    included.  Sorted.  Termination is by visited-set, so cycles
    (recursion) are fine. *)
