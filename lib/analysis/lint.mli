(** AST-driven lint engine over the repo's own sources.

    Parses [.ml]/[.mli] files with the vanilla compiler front end
    (compiler-libs, no ppx), walks the Parsetree with [Ast_iterator] and
    reports [file:line:col \[RULE\] message] diagnostics for the rule
    catalogue in {!Rules}.

    Suppression is by attribute only: attach [\[@lint.allow "E001"\]]
    to an expression, [\[@@lint.allow "E001"\]] to a let-binding or
    module binding, or float [\[@@@lint.allow "E001"\]] at the top
    level to suppress a rule for the whole file.  Payloads take a
    comma-separated rule list.  With {!Es_obs.Obs} enabled, the run
    counts the findings it reports and those attributes suppress, per
    rule, in the counters ["eslint.reported.<RULE>"] and
    ["eslint.suppressed.<RULE>"]. *)

type config = {
  rules : Rules.t list;  (** rules to enforce; others are ignored *)
}

val default_config : config
(** All rules on. *)

type diagnostic = {
  file : string;
  line : int;  (** 1-based *)
  col : int;  (** 0-based, as the compiler reports *)
  rule : Rules.t;
  message : string;
}

val to_string : diagnostic -> string
(** ["file:line:col [E001] message"]. *)

val compare_diagnostic : diagnostic -> diagnostic -> int
(** Order by file, line, column, rule. *)

val lint_sources :
  config -> (string * string) list -> diagnostic list * string list
(** Lint in-memory [(file, contents)] pairs as one run, exactly as
    {!lint_paths} lints files read from disk (drives the unit tests);
    E005 accepts a sibling [.mli] among the pairs or on disk.
    Returns sorted, deduplicated diagnostics and the per-file errors
    (a parse failure or a malformed [\[@lint.allow\]]/[\[@units\]]
    payload, not a finding) in input order. *)

val lint_paths :
  ?exclude:string list ->
  config ->
  string list ->
  diagnostic list * string list
(** Lint files and directories (recursively; [_build]/[.git] skipped;
    [exclude] prunes path prefixes such as [test/fixtures], with or
    without a trailing slash).  Each file is parsed once; pass 1
    harvests the [\[@units\]] annotations of every [.mli] and builds
    one {!Callgraph} over every [.ml], pass 2 runs the per-file rules
    against them.  Roots and collected files are path-normalised, so
    naming a file directly and reaching it through a directory walk
    yields one set of findings. *)
