(* eslint: AST-driven static analysis over the repo's own sources.

   Usage:
     eslint [PATH]...                    lint files / directories (default .)
     eslint --rules E001,U001 lib        enforce a subset of the catalogue
     eslint --skip E005,P002 lib         enforce everything but these
     eslint --skip U001,U002,U003 lib    switch off a whole rule family
     eslint --format sarif lib           GitHub code-scanning report
     eslint --exclude test/fixtures ...  prune a subtree from the scan
     eslint --stats lib                  report timings and per-rule counts
     eslint --list-rules                 print the rule catalogue

   Exit codes: 0 clean, 1 findings reported, 2 operational error
   (unparsable file, unknown rule id, missing path). *)

open Cmdliner
module Lint = Es_analysis.Lint
module Rules = Es_analysis.Rules
module Obs = Es_obs.Obs

let parse_rules spec =
  let ids =
    String.split_on_char ',' spec
    |> List.map String.trim
    |> List.filter (fun s -> s <> "")
  in
  let resolve acc id =
    match (acc, Rules.of_id id) with
    | Error _, _ -> acc
    | Ok rules, Some r -> Ok (r :: rules)
    | Ok _, None -> Error (Printf.sprintf "unknown rule id %S" id)
  in
  match List.fold_left resolve (Ok []) ids with
  | Ok [] -> Error "empty rule list"
  | Ok rules -> Ok (List.sort_uniq Rules.compare_rule rules)
  | Error _ as e -> e

let list_rules () =
  List.iter
    (fun r -> Printf.printf "%s  %s\n" (Rules.id r) (Rules.describe r))
    Rules.all;
  0

(* ------------------------------------------------------------------ *)
(* output formats                                                      *)
(* ------------------------------------------------------------------ *)

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let print_human diags errors =
  List.iter (fun d -> print_endline (Lint.to_string d)) diags;
  (* keep stdout/stderr ordering deterministic for cram tests *)
  flush stdout;
  List.iter (fun e -> prerr_endline ("eslint: " ^ e)) errors;
  if diags <> [] then Printf.eprintf "eslint: %d finding(s)\n" (List.length diags)

(* Render a JSON array block: "[]" when empty, one element per line
   otherwise, closed at [indent]. *)
let json_array ~indent items =
  if items = [] then "[]"
  else Printf.sprintf "[\n%s\n%s]" (String.concat ",\n" items) indent

(* Minimal SARIF 2.1.0 for GitHub code scanning.  Columns are 1-based
   there, 0-based in our diagnostics. *)
let print_sarif rules (diags : Lint.diagnostic list) =
  let rule r =
    Printf.sprintf
      "          {\"id\": \"%s\", \"shortDescription\": {\"text\": \"%s\"}}"
      (Rules.id r)
      (json_escape (Rules.describe r))
  in
  let result (d : Lint.diagnostic) =
    Printf.sprintf
      "        {\"ruleId\": \"%s\", \"level\": \"error\", \"message\": \
       {\"text\": \"%s\"}, \"locations\": [{\"physicalLocation\": \
       {\"artifactLocation\": {\"uri\": \"%s\"}, \"region\": {\"startLine\": \
       %d, \"startColumn\": %d}}}]}"
      (Rules.id d.rule) (json_escape d.message) (json_escape d.file)
      (max 1 d.line) (d.col + 1)
  in
  Printf.printf
    "{\n\
    \  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n\
    \  \"version\": \"2.1.0\",\n\
    \  \"runs\": [\n\
    \    {\n\
    \      \"tool\": {\n\
    \        \"driver\": {\n\
    \          \"name\": \"eslint\",\n\
    \          \"informationUri\": \"DESIGN.md\",\n\
    \          \"rules\": %s\n\
    \        }\n\
    \      },\n\
    \      \"results\": %s\n\
    \    }\n\
    \  ]\n\
     }\n"
    (json_array ~indent:"          " (List.map rule rules))
    (json_array ~indent:"      " (List.map result diags))

(* ------------------------------------------------------------------ *)
(* driver                                                              *)
(* ------------------------------------------------------------------ *)

(* Timer handles shared with lib/analysis/lint.ml — [Obs.timer] is
   find-or-create by name, so these resolve to the cells the engine
   accumulates into. *)
let stats_timers = [ "eslint.callgraph.build"; "eslint.effects.infer" ]

let print_stats () =
  List.iter
    (fun name ->
      let t = Obs.timer name in
      Printf.eprintf "eslint: stats: %s count=%d total=%s\n" name
        (Obs.timer_count t)
        (Obs.pp_duration (Obs.timer_total t)))
    stats_timers;
  (* per-rule counters, also shared with lint.ml by name; a rule with
     neither a reported nor a suppressed finding is omitted *)
  List.iter
    (fun r ->
      let count kind =
        Obs.value (Obs.counter (Printf.sprintf "eslint.%s.%s" kind (Rules.id r)))
      in
      let reported = count "reported" and suppressed = count "suppressed" in
      if reported > 0 || suppressed > 0 then
        Printf.eprintf "eslint: stats: %s reported=%d suppressed=%d\n"
          (Rules.id r) reported suppressed)
    Rules.all

let run list_only rules_spec skip_spec stats format exclude paths =
  if list_only then list_rules ()
  else
    let fail msg =
      prerr_endline ("eslint: " ^ msg);
      2
    in
    let rules =
      match rules_spec with None -> Ok Rules.all | Some spec -> parse_rules spec
    in
    let rules =
      match (rules, skip_spec) with
      | Error _, _ | _, None -> rules
      | Ok rs, Some spec ->
        Result.map
          (fun skip -> List.filter (fun r -> not (List.mem r skip)) rs)
          (parse_rules spec)
    in
    match rules with
    | Error msg -> fail msg
    | Ok [] -> fail "empty rule list (--skip removed every rule)"
    | Ok rules ->
      let config = { Lint.rules } in
      let paths = if paths = [] then [ "." ] else paths in
      let missing = List.filter (fun p -> not (Sys.file_exists p)) paths in
      if missing <> [] then
        fail ("no such path: " ^ String.concat ", " missing)
      else begin
        if stats then Obs.enable ();
        let diags, errors =
          Fun.protect
            ~finally:(fun () -> if stats then Obs.disable ())
            (fun () -> Lint.lint_paths ~exclude config paths)
        in
        (match format with
        | `Human -> print_human diags errors
        | `Sarif ->
          print_sarif rules diags;
          flush stdout;
          List.iter (fun e -> prerr_endline ("eslint: " ^ e)) errors);
        if stats then print_stats ();
        if errors <> [] then 2 else if diags <> [] then 1 else 0
      end

let cmd =
  let list_arg =
    Arg.(value & flag & info [ "list-rules" ] ~doc:"Print the rule catalogue and exit.")
  in
  let rules_arg =
    Arg.(value & opt (some string) None
         & info [ "rules" ] ~docv:"RULES"
             ~doc:"Comma-separated rule ids to enforce (default: all).")
  in
  let skip_arg =
    Arg.(value & opt (some string) None
         & info [ "skip" ] ~docv:"RULES"
             ~doc:"Comma-separated rule ids to drop from the selection, \
                   e.g. $(b,--skip U001,U002,U003) for the whole \
                   dimensional-analysis family; unknown ids are an error.")
  in
  let stats_arg =
    Arg.(value & flag
         & info [ "stats" ]
             ~doc:"Report analysis-phase timings (call-graph construction, \
                   effect inference) and, per rule, the findings reported \
                   and suppressed by attributes on stderr after the run.")
  in
  let format_arg =
    Arg.(value
         & opt (enum [ ("human", `Human); ("sarif", `Sarif) ]) `Human
         & info [ "format" ] ~docv:"FMT"
             ~doc:"Output format: $(b,human) (default) or $(b,sarif) \
                   (GitHub code-scanning annotations).")
  in
  let exclude_arg =
    Arg.(value & opt_all string []
         & info [ "exclude" ] ~docv:"PATH"
             ~doc:"Prune a path prefix from directory recursion (repeatable); \
                   e.g. $(b,--exclude test/fixtures).")
  in
  let paths_arg =
    Arg.(value & pos_all string [] & info [] ~docv:"PATH"
           ~doc:"Files or directories to lint (default: current directory).")
  in
  let exits =
    [
      Cmd.Exit.info 0 ~doc:"the scan completed with no findings.";
      Cmd.Exit.info 1 ~doc:"the scan completed and reported findings.";
      Cmd.Exit.info 2
        ~doc:"operational error: unparsable source file, unknown rule id \
              or missing path.";
    ]
  in
  let info =
    Cmd.info "eslint" ~version:"1.0.0" ~exits
      ~doc:"AST-driven lint for float-safety, totality, dimensional and \
            parallel-safety invariants."
  in
  Cmd.v info
    Term.(const run $ list_arg $ rules_arg $ skip_arg $ stats_arg $ format_arg
          $ exclude_arg $ paths_arg)

let () = exit (Cmd.eval' cmd)
