(* Checked-in allowlist: one "<path> <rule>" pair per line, '#' starts a
   comment.  Paths are matched by suffix against the (slash-normalised)
   file being linted, so the same file works from the repo root and from
   a dune sandbox.  A path ending in '/' is a directory entry and
   permits the rule in every file under that directory. *)

type entry = { path : string; rule : Rules.t }
type t = entry list

let empty = []

(* Slash-normalise but keep a single trailing '/' — that is the
   directory-entry marker.  Collapsing duplicates means "test//" and
   "./test/" both parse to the entry "test/". *)
let normalise_path p =
  let p = String.map (fun c -> if c = '\\' then '/' else c) p in
  let buf = Buffer.create (String.length p) in
  String.iter
    (fun c ->
      let n = Buffer.length buf in
      if not (c = '/' && n > 0 && Buffer.nth buf (n - 1) = '/') then
        Buffer.add_char buf c)
    p;
  let p = Buffer.contents buf in
  if String.starts_with ~prefix:"./" p && String.length p > 2 then
    String.sub p 2 (String.length p - 2)
  else p

let strip_comment line =
  match String.index_opt line '#' with
  | Some i -> String.sub line 0 i
  | None -> line

let parse_line ~file ~lineno line =
  let line = String.trim (strip_comment line) in
  if line = "" then Ok None
  else
    match String.split_on_char ' ' line |> List.filter (fun s -> s <> "") with
    | [ path; rule_id ] -> (
      match Rules.of_id rule_id with
      | Some rule -> Ok (Some { path = normalise_path path; rule })
      | None ->
        Error
          (Printf.sprintf "%s:%d: unknown rule id %S" file lineno rule_id))
    | _ ->
      Error
        (Printf.sprintf "%s:%d: expected \"<path> <rule>\", got %S" file
           lineno line)

let parse ~file contents =
  let lines = String.split_on_char '\n' contents in
  let entries, errors, _ =
    List.fold_left
      (fun (entries, errors, lineno) line ->
        match parse_line ~file ~lineno line with
        | Ok None -> (entries, errors, lineno + 1)
        | Ok (Some e) -> (e :: entries, errors, lineno + 1)
        | Error msg -> (entries, msg :: errors, lineno + 1))
      ([], [], 1) lines
  in
  match errors with
  | [] -> Ok (List.rev entries)
  | _ -> Error (String.concat "\n" (List.rev errors))

let load file =
  match In_channel.with_open_text file In_channel.input_all with
  | contents -> parse ~file contents
  | exception Sys_error msg -> Error msg

(* "lib/dag/sp.ml" matches entry "dag/sp.ml"; "test/lint/x.ml" matches
   the directory entry "test/" both as a prefix (repo-root runs) and
   after any "/" (sandbox runs). *)
let path_matches ~file allowed =
  let file = normalise_path file in
  let la = String.length allowed and lf = String.length file in
  if la > 0 && allowed.[la - 1] = '/' then
    (lf > la && String.sub file 0 la = allowed)
    || (let rec at i =
          i >= 0
          && ((file.[i] = '/' && lf - i - 1 > la
               && String.sub file (i + 1) la = allowed)
              || at (i - 1))
        in
        at (lf - la - 2))
  else
    file = allowed
    || (lf > la
        && String.sub file (lf - la) la = allowed
        && file.[lf - la - 1] = '/')

let permits t ~file rule =
  List.exists (fun e -> e.rule = rule && path_matches ~file e.path) t
