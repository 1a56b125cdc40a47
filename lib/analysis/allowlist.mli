(** Checked-in path/rule allowlist (the [lint.allow] file).

    Format: one ["<path> <rule>"] pair per line; ['#'] starts a comment;
    blank lines are ignored.  A pair permits findings of [rule] in every
    file whose slash-normalised path equals [path] or ends with
    ["/" ^ path], so entries keep working from inside dune sandboxes.
    A [path] ending in ['/'] is a directory entry: it permits the rule
    in every file under that directory (matched as a leading prefix or
    after any ["/"], e.g. ["test/ E004"] covers [test/lint/foo.ml]). *)

type t

val empty : t

val normalise_path : string -> string
(** Forward slashes, duplicate separators collapsed, a leading ["./"]
    stripped; a trailing ['/'] is kept. *)

val parse : file:string -> string -> (t, string) result
(** [parse ~file contents] parses an allowlist; [file] is only used in
    error messages.  All malformed lines are reported at once. *)

val load : string -> (t, string) result
(** Read and [parse] a file from disk. *)

val permits : t -> file:string -> Rules.t -> bool
(** Does the allowlist permit findings of this rule in this file? *)
