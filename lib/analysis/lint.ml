(* AST-driven lint engine.

   A file is parsed with the vanilla compiler front end
   (compiler-libs.common, no ppx) and walked once with [Ast_iterator].
   The walk collects raw findings *and* suppression ranges from
   [@lint.allow "E00x"] attributes; at the end every finding whose
   character range falls inside a matching suppression range is
   dropped.  Attributes are the only suppression mechanism.

   Findings are keyed on fully-qualified identifier paths, with a
   leading [Stdlib.] stripped, so [Stdlib.compare] and [compare] are the
   same offence while [Float.compare] is not. *)

type config = { rules : Rules.t list }

let default_config = { rules = Rules.all }

type diagnostic = {
  file : string;
  line : int;
  col : int;
  rule : Rules.t;
  message : string;
}

let to_string d =
  Printf.sprintf "%s:%d:%d [%s] %s" d.file d.line d.col (Rules.id d.rule)
    d.message

let compare_diagnostic a b =
  let c = String.compare a.file b.file in
  if c <> 0 then c
  else
    let c = Int.compare a.line b.line in
    if c <> 0 then c
    else
      let c = Int.compare a.col b.col in
      if c <> 0 then c else Rules.compare_rule a.rule b.rule

(* ------------------------------------------------------------------ *)
(* identifier tables                                                   *)
(* ------------------------------------------------------------------ *)

(* E001: polymorphic structural comparison / hashing. *)
let poly_ops = [ "compare"; "Hashtbl.hash"; "Hashtbl.seeded_hash"; "Hashtbl.hash_param" ]

(* E002: partial stdlib functions on hot paths. *)
let partial_fns =
  [
    "List.hd"; "List.tl"; "List.nth"; "List.find"; "List.assoc";
    "Option.get"; "Hashtbl.find"; "Float.of_string";
  ]

(* E004: direct printing to stdout. *)
let print_fns =
  [
    "print_string"; "print_endline"; "print_newline"; "print_char";
    "print_int"; "print_float"; "print_bytes"; "Printf.printf";
    "Format.printf"; "Format.print_string"; "Format.print_newline";
  ]

(* ------------------------------------------------------------------ *)
(* paths                                                               *)
(* ------------------------------------------------------------------ *)

(* Library code is anything with a [lib] path segment, and only library
   modules owe an interface (E005): a test runner is an executable.
   Test runners (a [test] segment) are held to the library's
   no-printing bar (E004) all the same. *)
let is_lib_source file = List.mem "lib" (Callgraph.segments file)

let is_lib_or_test_source file =
  let segs = Callgraph.segments file in
  List.mem "lib" segs || List.mem "test" segs

(* U003 applies to the interfaces of the numeric core. *)
let units_scope = [ "core"; "platform" ]

(* E007 applies to the libraries whose values are shared across worker
   domains by lib/par: the solver core, the schedulers and the
   simulator.  lib/obs keeps its (atomic) counters, and binaries own
   their CLI state, so neither is in scope. *)
let domain_scope = [ "core"; "sched"; "sim" ]

(* ------------------------------------------------------------------ *)
(* one-file analysis state                                             *)
(* ------------------------------------------------------------------ *)

type raw_finding = { r_rule : Rules.t; r_loc : Location.t; r_message : string }

(* A suppression covers one rule over a [cnum, cnum] character range. *)
type suppression = { s_rule : Rules.t; s_from : int; s_to : int }

type state = {
  src_file : string;
  mutable findings : raw_finding list;
  mutable suppressions : suppression list;
  mutable errors : string list;
}

let report st rule loc message =
  st.findings <- { r_rule = rule; r_loc = loc; r_message = message } :: st.findings

(* [@lint.allow "E001"] / [@lint.allow "E001,E004"] payloads. *)
let allow_attr_rules st (attr : Parsetree.attribute) =
  if attr.attr_name.txt <> "lint.allow" then []
  else
    let malformed () =
      let p = attr.attr_loc.loc_start in
      st.errors <-
        Printf.sprintf
          "%s:%d:%d malformed [@lint.allow] payload: expected a string \
           literal such as \"E001\" or \"E001,E004\""
          st.src_file p.pos_lnum (p.pos_cnum - p.pos_bol)
        :: st.errors;
      []
    in
    match Callgraph.string_payload attr.attr_payload with
    | Some s ->
      let ids = String.split_on_char ',' s in
      let rules = List.filter_map Rules.of_id ids in
      if List.length rules <> List.length ids then malformed () else rules
    | None -> malformed ()

let add_suppressions st ~(scope : Location.t) attrs =
  List.iter
    (fun attr ->
      List.iter
        (fun rule ->
          st.suppressions <-
            {
              s_rule = rule;
              s_from = scope.loc_start.pos_cnum;
              s_to = scope.loc_end.pos_cnum;
            }
            :: st.suppressions)
        (allow_attr_rules st attr))
    attrs

let whole_file : Location.t -> Location.t =
 fun _ ->
  let pos = { Lexing.pos_fname = ""; pos_lnum = 0; pos_bol = 0; pos_cnum = 0 } in
  {
    Location.loc_start = pos;
    loc_end = { pos with pos_cnum = max_int };
    loc_ghost = true;
  }

(* ------------------------------------------------------------------ *)
(* rule checks                                                         *)
(* ------------------------------------------------------------------ *)

let check_ident st ~lib name loc =
  if List.mem name poly_ops then
    report st Rules.E001 loc
      (Printf.sprintf
         "polymorphic structural operation %s; use a typed comparator \
          (Float.compare, Int.compare, String.compare, List.compare, ...)"
         name)
  else if List.mem name partial_fns then
    report st Rules.E002 loc
      (Printf.sprintf
         "partial stdlib function %s; use a total match or the _opt variant"
         name)
  else if lib && List.mem name print_fns then
    report st Rules.E004 loc
      (Printf.sprintf
         "direct printing via %s from library code; return a string or \
          annotate the render entry point with [@lint.allow \"E004\"]"
         name)
  else if name = "Obj.magic" || String.starts_with ~prefix:"Marshal." name then
    report st Rules.E006 loc
      (Printf.sprintf "unsafe representation escape %s" name)

(* E007: module-level mutable state.  Only constructors that *allocate
   a mutable value at module initialisation time* count — a [let mk ()
   = ref 0] factory is fine because each call gets a fresh cell. *)
let mutable_creators =
  [ "ref"; "Hashtbl.create"; "Queue.create"; "Stack.create"; "Buffer.create" ]

(* ... and domain-safe synchronisation primitives are explicitly
   exempt: a top-level Atomic/Mutex/Condition exists precisely to be
   shared across domains.  (Explicit so a future creator added to
   [mutable_creators] cannot silently re-flag them.) *)
let domain_safe_creators =
  [
    "Atomic.make"; "Mutex.create"; "Condition.create";
    "Semaphore.Counting.make"; "Semaphore.Binary.make";
  ]

(* Walk through the wrappers that still denote "this binding *is* that
   allocation" ([let x : t = ref 0], [let x = let n = 8 in Hashtbl.create n])
   down to the applied function, if any. *)
let rec creation_head (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_constraint (inner, _)
  | Pexp_coerce (inner, _, _)
  | Pexp_open (_, inner)
  | Pexp_let (_, _, inner)
  | Pexp_sequence (_, inner) ->
    creation_head inner
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) ->
    Callgraph.ident_name txt
  | _ -> None

let check_module_level_mutability st (si : Parsetree.structure_item) =
  match si.pstr_desc with
  | Pstr_value (_, vbs) ->
    List.iter
      (fun (vb : Parsetree.value_binding) ->
        match creation_head vb.pvb_expr with
        | Some name when List.mem name domain_safe_creators -> ()
        | Some name when List.mem name mutable_creators ->
          report st Rules.E007 vb.pvb_loc
            (Printf.sprintf
               "module-level mutable state (%s) in domain-shared code; \
                worker domains race on it — make it immutable, pass state \
                explicitly, or justify with [@lint.allow \"E007\"]"
               name)
        | _ -> ())
      vbs
  | Pstr_type (_, decls) ->
    List.iter
      (fun (td : Parsetree.type_declaration) ->
        match td.ptype_kind with
        | Ptype_record labels ->
          List.iter
            (fun (ld : Parsetree.label_declaration) ->
              if ld.pld_mutable = Asttypes.Mutable then
                report st Rules.E007 ld.pld_loc
                  (Printf.sprintf
                     "mutable record field %s in domain-shared code; values \
                      of this type race when shared across worker domains — \
                      drop [mutable] or use Atomic.t"
                     ld.pld_name.txt))
            labels
        | _ -> ())
      decls
  | _ -> ()

let check_try_case st (case : Parsetree.case) =
  (* Guarded handlers ([with _ when p ->]) are selective; leave them. *)
  if case.pc_guard = None then
    match case.pc_lhs.ppat_desc with
    | Ppat_any ->
      report st Rules.E003 case.pc_lhs.ppat_loc
        "catch-all exception handler 'with _ ->' swallows every exception \
         (including Out_of_memory and Assert_failure); match the \
         exceptions you expect"
    | Ppat_var _ -> (
      match case.pc_rhs.pexp_desc with
      | Pexp_construct ({ txt = Lident "()"; _ }, None) ->
        report st Rules.E003 case.pc_lhs.ppat_loc
          "exception handler binds every exception and discards it; \
           match the exceptions you expect"
      | _ -> ())
    | _ -> ()

(* ------------------------------------------------------------------ *)
(* AST walk                                                            *)
(* ------------------------------------------------------------------ *)

let make_iterator st ~lib ~domain =
  let open Ast_iterator in
  let expr iter (e : Parsetree.expression) =
    add_suppressions st ~scope:e.pexp_loc e.pexp_attributes;
    (match e.pexp_desc with
    | Pexp_ident { txt; loc } -> (
      match Callgraph.ident_name txt with
      | Some name -> check_ident st ~lib name loc
      | None -> ())
    | Pexp_try (_, cases) -> List.iter (check_try_case st) cases
    | _ -> ());
    default_iterator.expr iter e
  in
  let value_binding iter (vb : Parsetree.value_binding) =
    add_suppressions st ~scope:vb.pvb_loc vb.pvb_attributes;
    default_iterator.value_binding iter vb
  in
  let structure_item iter (si : Parsetree.structure_item) =
    (match si.pstr_desc with
    | Pstr_attribute attr ->
      (* floating [@@@lint.allow "..."]: suppress for the whole file *)
      add_suppressions st ~scope:(whole_file si.pstr_loc) [ attr ]
    | Pstr_eval (_, attrs) -> add_suppressions st ~scope:si.pstr_loc attrs
    | _ -> ());
    if domain then check_module_level_mutability st si;
    default_iterator.structure_item iter si
  in
  let module_binding iter (mb : Parsetree.module_binding) =
    add_suppressions st ~scope:mb.pmb_loc mb.pmb_attributes;
    default_iterator.module_binding iter mb
  in
  let signature_item iter (si : Parsetree.signature_item) =
    (match si.psig_desc with
    | Psig_attribute attr ->
      add_suppressions st ~scope:(whole_file si.psig_loc) [ attr ]
    | _ -> ());
    default_iterator.signature_item iter si
  in
  (* [@lint.allow] can also sit on a [val] declaration, a record label
     or inline on a core type — the natural scopes for U003. *)
  let value_description iter (vd : Parsetree.value_description) =
    add_suppressions st ~scope:vd.pval_loc vd.pval_attributes;
    default_iterator.value_description iter vd
  in
  let label_declaration iter (ld : Parsetree.label_declaration) =
    add_suppressions st ~scope:ld.pld_loc ld.pld_attributes;
    default_iterator.label_declaration iter ld
  in
  let typ iter (ty : Parsetree.core_type) =
    add_suppressions st ~scope:ty.ptyp_loc ty.ptyp_attributes;
    default_iterator.typ iter ty
  in
  {
    default_iterator with
    expr;
    value_binding;
    structure_item;
    module_binding;
    signature_item;
    value_description;
    label_declaration;
    typ;
  }

(* ------------------------------------------------------------------ *)
(* entry points                                                        *)
(* ------------------------------------------------------------------ *)

let suppressed st (f : raw_finding) =
  let c = f.r_loc.loc_start.pos_cnum in
  List.exists
    (fun s -> s.s_rule = f.r_rule && s.s_from <= c && c <= s.s_to)
    st.suppressions

module Obs = Es_obs.Obs

(* [eslint --stats] reads these back by name, like the timers below *)
let rule_counters kind =
  List.map
    (fun r -> (r, Obs.counter (Printf.sprintf "eslint.%s.%s" kind (Rules.id r))))
    Rules.all

let reported_counters = rule_counters "reported"
let suppressed_counters = rule_counters "suppressed"
let tally counters rule = Option.iter Obs.incr (List.assq_opt rule counters)

let finalise config st =
  let diags =
    List.filter_map
      (fun f ->
        if not (List.mem f.r_rule config.rules) then None
        else if suppressed st f then begin
          tally suppressed_counters f.r_rule;
          None
        end
        else
          let p = f.r_loc.loc_start in
          Some
            {
              file = st.src_file;
              line = p.pos_lnum;
              col = p.pos_cnum - p.pos_bol;
              rule = f.r_rule;
              message = f.r_message;
            })
      st.findings
    |> List.sort compare_diagnostic
  in
  match st.errors with
  | [] -> Ok diags
  | errs -> Error (String.concat "\n" (List.rev errs))

(* E005 anchors at the file's first character, so a floating
   [@@@lint.allow "E005"] suppresses it like any other rule *)
let check_missing_mli st ~has_mli file =
  if
    Filename.check_suffix file ".ml"
    && is_lib_source file
    && not (has_mli file)
  then
    let pos = { Lexing.pos_fname = file; pos_lnum = 1; pos_bol = 0; pos_cnum = 0 } in
    report st Rules.E005
      { Location.loc_start = pos; loc_end = pos; loc_ghost = true }
      (Printf.sprintf "library module %s has no .mli interface; write one"
         (Filename.basename file))

let parse_error_message file exn =
  match Location.error_of_exn exn with
  | Some (`Ok report) ->
    Format.asprintf "%s: %a" file Location.print_report report
    |> String.map (fun c -> if c = '\n' then ' ' else c)
  | _ -> Printf.sprintf "%s: parse error" file

(* Is any rule of the family ([Rules.units], [par], [effects]) on? *)
let enabled config family =
  List.exists (fun r -> List.mem r config.rules) family

(* [eslint --stats] reads these back from the Obs snapshot *)
let callgraph_timer = Obs.timer "eslint.callgraph.build"
let effects_timer = Obs.timer "eslint.effects.infer"

type ast = Intf of Parsetree.signature | Impl of Parsetree.structure

(* The one parse of a file: the [@units] harvest, the declaration
   table and the per-file rules all read this AST. *)
let parse ~file contents =
  let lexbuf = Lexing.from_string contents in
  Location.init lexbuf file;
  match
    if Filename.check_suffix file ".mli" then Intf (Parse.interface lexbuf)
    else Impl (Parse.implementation lexbuf)
  with
  | ast -> Ok ast
  | exception ((Syntaxerr.Error _ | Lexer.Error _) as exn) ->
    Error (parse_error_message file exn)

(* Pass 2 over one file: the syntactic rules plus every enabled family,
   against the environments pass 1 built over the whole run.  X001 on a
   [.mli] reads the summaries of the implementations linted with it. *)
let lint_ast config ~has_mli ~units_env ~par_ctx ~eff file ast =
  let st = { src_file = file; findings = []; suppressions = []; errors = [] } in
  let report = report st in
  let error msg = st.errors <- msg :: st.errors in
  let iter =
    make_iterator st ~lib:(is_lib_or_test_source file)
      ~domain:(Callgraph.in_lib domain_scope file)
  in
  (match ast with
  | Intf sg ->
    iter.signature iter sg;
    if enabled config Rules.units then
      Units_rules.check_interface
        ~annotate_scope:(Callgraph.in_lib units_scope file)
        ~report ~error sg;
    Option.iter
      (fun eff -> Resource_rules.check_interface ~eff ~file ~report sg)
      eff
  | Impl str ->
    iter.structure iter str;
    if enabled config Rules.units then
      Units_rules.check_structure units_env
        ~module_name:(Callgraph.module_name_of_file file)
        ~report ~error str;
    Option.iter
      (fun ctx -> Par_rules.check_structure ctx ~file ~report str)
      par_ctx;
    Option.iter
      (fun eff -> Resource_rules.check_structure ~eff ~file ~report str)
      eff);
  check_missing_mli st ~has_mli file;
  finalise config st

(* Full order including the message, so a file reached both directly
   and through a directory walk cannot yield duplicate findings. *)
let compare_diagnostic_full a b =
  let c = compare_diagnostic a b in
  if c <> 0 then c else String.compare a.message b.message

(* Pass 1 harvests [@units] annotations from every interface and
   declares every implementation in ONE table, shared by the P and
   X/R families; pass 2 lints file by file.  A file that failed to
   parse contributes nothing to pass 1 and reports its error in pass 2,
   in file order. *)
let lint_parsed config sources =
  let units_env = Units_rules.empty_env () in
  if enabled config Rules.units then
    List.iter
      (function
        | file, Ok (Intf sg) ->
          Units_rules.collect_interface units_env
            ~module_name:(Callgraph.module_name_of_file file)
            sg
        | _ -> ())
      sources;
  let graph =
    if enabled config Rules.par || enabled config Rules.effects then
      Some
        (Obs.time callgraph_timer (fun () ->
             let graph = Callgraph.create () in
             List.iter
               (function
                 | file, Ok (Impl str) -> Callgraph.add_source graph ~file str
                 | _ -> ())
               sources;
             graph))
    else None
  in
  let par_ctx =
    if enabled config Rules.par then Option.map Par_rules.make_ctx graph
    else None
  in
  let eff =
    if enabled config Rules.effects then
      Option.map
        (fun g -> Obs.time effects_timer (fun () -> Effects.infer g))
        graph
    else None
  in
  (* E005 accepts an interface linted in the same run or on disk *)
  let has_mli file =
    let mli = Filename.remove_extension file ^ ".mli" in
    List.mem_assoc mli sources || Sys.file_exists mli
  in
  List.fold_left
    (fun (diags, errors) (file, ast) ->
      match
        Result.bind ast (lint_ast config ~has_mli ~units_env ~par_ctx ~eff file)
      with
      | Ok ds -> (ds :: diags, errors)
      | Error msg -> (diags, msg :: errors))
    ([], []) sources
  |> fun (diags, errors) ->
  let diags =
    List.concat (List.rev diags) |> List.sort_uniq compare_diagnostic_full
  in
  List.iter (fun d -> tally reported_counters d.rule) diags;
  (diags, List.rev errors)

let lint_sources config sources =
  lint_parsed config
    (List.map (fun (file, contents) -> (file, parse ~file contents)) sources)

(* Directory recursion: descend everywhere except build/VCS droppings.
   Explicitly named roots are always scanned, so pointing the driver at
   a fixture directory works even though [_build] is skipped during
   descent. *)
let skip_dirs = [ "_build"; ".git"; "node_modules" ]

let is_source file =
  Filename.check_suffix file ".ml" || Filename.check_suffix file ".mli"

(* Canonical relative form: forward slashes, duplicate separators
   collapsed, leading "./" and any trailing '/' stripped — so
   [eslint lib/core lib/core/ ./lib//core] all name the same root and
   [--exclude test/fixtures/] matches what the walker compares. *)
let normalise_path p =
  let p = String.map (fun c -> if c = '\\' then '/' else c) p in
  let segs = String.split_on_char '/' p |> List.filter (fun s -> s <> "") in
  if String.starts_with ~prefix:"/" p then "/" ^ String.concat "/" segs
  else
    match segs with
    | "." :: (_ :: _ as rest) -> String.concat "/" rest
    | _ -> String.concat "/" segs

let is_excluded ~exclude path =
  let path = normalise_path path in
  List.exists
    (fun ex ->
      path = ex || String.starts_with ~prefix:(ex ^ "/") path)
    exclude

let rec collect_path ~exclude acc path =
  if Sys.is_directory path then
    Sys.readdir path |> Array.to_list |> List.sort String.compare
    |> List.fold_left
         (fun acc entry ->
           let child = Filename.concat path entry in
           if is_excluded ~exclude child then acc
           else if Sys.is_directory child then
             if List.mem entry skip_dirs then acc
             else collect_path ~exclude acc child
           else if is_source child then child :: acc
           else acc)
         acc
  else if is_source path then path :: acc
  else acc

let lint_paths ?(exclude = []) config paths =
  let exclude = List.map normalise_path exclude in
  let files =
    List.fold_left (collect_path ~exclude) [] (List.map normalise_path paths)
    |> List.map normalise_path
    |> List.sort_uniq String.compare
  in
  lint_parsed config
    (List.map
       (fun file ->
         ( file,
           match In_channel.with_open_text file In_channel.input_all with
           | contents -> parse ~file contents
           | exception Sys_error msg -> Error msg ))
       files)
