(* Conservative cross-module call graph over compiler-libs ASTs.

   One eslint run feeds every .ml of the lint set into a single graph
   (pass 1, like the [@units] environment); the parallel-safety pass
   (pass 2) then asks reachability questions against it.  The model is
   deliberately value-level and syntactic:

   - a node is one top-level [let] binding, keyed
     "<Module>.<value>" where <Module> is the innermost enclosing
     module (the file's module for top-level bindings, the submodule
     name for bindings inside [module Sub = struct ... end]);
   - an edge goes from a binding to every identifier path its body
     mentions, whether in call position or not — referencing a value
     is enough to (conservatively) reach it;
   - [module P = Es_par.Par]-style aliases are expanded per file, so
     [P.parallel_map] and [Es_par.Par.parallel_map] resolve alike;
   - identifiers that resolve to no node of the graph (stdlib,
     external libraries, local variables) are terminal: they appear in
     edge lists under their resolved name but have no outgoing edges.
     Reachability treats them as opaque leaves — the soundness default
     for unknown externals is "no further effects visible here", with
     the explicit deny-lists of {!Par_rules} covering the dangerous
     ones by name.

   Functors are not tracked (no higher-order module flow), and [open]
   does not re-scope bare identifiers; both are documented caveats of
   the pass (DESIGN.md §9). *)

module SSet = Set.Make (String)

type def = {
  d_file : string;
  d_loc : Location.t;
  d_expr : Parsetree.expression;
  d_params : string list;
}

type t = {
  defs : (string, def) Hashtbl.t;
  edges : (string, (string * Location.t) list) Hashtbl.t;
  modules : (string, unit) Hashtbl.t;
  (* per-file [module X = Path] aliases: file -> (X -> path segments) *)
  aliases : (string * string, string list) Hashtbl.t;
  file_module : (string, string) Hashtbl.t;
}

let create () =
  {
    defs = Hashtbl.create 256;
    edges = Hashtbl.create 256;
    modules = Hashtbl.create 64;
    aliases = Hashtbl.create 64;
    file_module = Hashtbl.create 64;
  }

(* ------------------------------------------------------------------ *)
(* paths, identifiers and AST shapes shared by every pass              *)
(* ------------------------------------------------------------------ *)

let segments file =
  String.map (fun c -> if c = '\\' then '/' else c) file
  |> String.split_on_char '/'
  |> List.filter (fun s -> s <> "" && s <> ".")

(* A [lib/<dir>] directory pair, for any [dir] of [dirs], anywhere in
   the path. *)
let in_lib dirs file =
  let rec pairs = function
    | "lib" :: dir :: _ when List.mem dir dirs -> true
    | _ :: rest -> pairs rest
    | [] -> false
  in
  pairs (segments file)

(* lib/par owns the pool and its blocking joins; lib/obs owns the
   (atomic) telemetry and the per-domain span stacks. *)
let sanctioned = [ "par"; "obs" ]

let module_name_of_file file =
  Filename.basename file |> Filename.remove_extension |> String.capitalize_ascii

let rec flatten_longident = function
  | Longident.Lident s -> Some [ s ]
  | Longident.Ldot (p, s) ->
    Option.map (fun segs -> segs @ [ s ]) (flatten_longident p)
  | Longident.Lapply _ -> None

let strip_stdlib = function
  | "Stdlib" :: rest when rest <> [] -> rest
  | segs -> segs

let last_segment = function
  | Longident.Lident s | Longident.Ldot (_, s) -> Some s
  | Longident.Lapply _ -> None

let ident_name lid =
  Option.map
    (fun segs -> String.concat "." (strip_stdlib segs))
    (flatten_longident lid)

let last_two_segments name =
  match List.rev (String.split_on_char '.' name) with
  | leaf :: parent :: _ -> parent ^ "." ^ leaf
  | _ -> name

let loc_tag (loc : Location.t) =
  Printf.sprintf "%s:%d" loc.loc_start.pos_fname loc.loc_start.pos_lnum

let hop (name, loc) = Printf.sprintf "%s@%s" name (loc_tag loc)

let first_positional args =
  List.find_map
    (fun ((label : Asttypes.arg_label), e) ->
      match label with Nolabel -> Some e | _ -> None)
    args

let rec peel (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_constraint (inner, _) | Pexp_newtype (_, inner) -> peel inner
  | _ -> e

let string_payload (payload : Parsetree.payload) =
  match payload with
  | PStr
      [
        {
          pstr_desc =
            Pstr_eval ({ pexp_desc = Pexp_constant (Pconst_string (s, _, _)); _ }, _);
          _;
        };
      ] ->
    Some s
  | _ -> None

(* Every variable name bound anywhere under [expr]: function
   parameters, let bindings, match/try cases.  (Shadowing an outer
   name anywhere in the expression hides the outer one — an accepted
   imprecision of the scope-free model.) *)
let bound_names expr =
  let acc = ref SSet.empty in
  let open Ast_iterator in
  let pat iter (p : Parsetree.pattern) =
    (match p.ppat_desc with
    | Ppat_var { txt; _ } | Ppat_alias (_, { txt; _ }) ->
      acc := SSet.add txt !acc
    | _ -> ());
    default_iterator.pat iter p
  in
  let iter = { default_iterator with pat } in
  iter.expr iter expr;
  !acc

(* ------------------------------------------------------------------ *)
(* identifier resolution                                               *)
(* ------------------------------------------------------------------ *)

(* Expand a leading module alias, chasing alias-of-alias up to a small
   bound so cyclic aliases cannot loop. *)
let expand_alias t ~file segs =
  let rec go fuel segs =
    if fuel = 0 then segs
    else
      match segs with
      | head :: rest -> (
        match Hashtbl.find_opt t.aliases (file, head) with
        | Some expansion -> go (fuel - 1) (expansion @ rest)
        | None -> segs)
      | [] -> segs
  in
  go 4 segs

let rec last_two = function
  | [ p; l ] -> Some (p, l)
  | _ :: tl -> last_two tl
  | [] -> None

let resolve t ~file lid =
  match flatten_longident lid with
  | None -> None
  | Some segs -> (
    let segs = strip_stdlib (expand_alias t ~file segs) in
    match segs with
    | [] -> None
    | [ x ] -> (
      match Hashtbl.find_opt t.file_module file with
      | Some m when Hashtbl.mem t.defs (m ^ "." ^ x) -> Some (m ^ "." ^ x)
      | _ -> Some x)
    | _ -> (
      match last_two segs with
      | Some (parent, leaf) when Hashtbl.mem t.modules parent ->
        Some (parent ^ "." ^ leaf)
      | _ -> Some (String.concat "." segs)))

(* ------------------------------------------------------------------ *)
(* harvest                                                             *)
(* ------------------------------------------------------------------ *)

(* Parameter names of the outermost [fun]-chain of a binding. *)
let rec pattern_vars acc (p : Parsetree.pattern) =
  match p.ppat_desc with
  | Ppat_var { txt; _ } -> txt :: acc
  | Ppat_alias (inner, { txt; _ }) -> pattern_vars (txt :: acc) inner
  | Ppat_constraint (inner, _) -> pattern_vars acc inner
  | Ppat_tuple ps -> List.fold_left pattern_vars acc ps
  | Ppat_record (fields, _) ->
    List.fold_left (fun acc (_, p) -> pattern_vars acc p) acc fields
  | _ -> acc

let rec fun_params acc (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_fun (_, _, pat, body) -> fun_params (pattern_vars acc pat) body
  | Pexp_newtype (_, body) -> fun_params acc body
  | Pexp_constraint (body, _) -> fun_params acc body
  | _ -> acc

(* Every identifier the expression mentions, resolved; first
   occurrence keeps its location (the witness-trace hop). *)
let referenced_idents t ~file expr =
  let seen : (string, unit) Hashtbl.t = Hashtbl.create 32 in
  let out = ref [] in
  let open Ast_iterator in
  let expr_iter iter (e : Parsetree.expression) =
    (match e.pexp_desc with
    | Pexp_ident { txt; loc } -> (
      match resolve t ~file txt with
      | Some name when not (Hashtbl.mem seen name) ->
        Hashtbl.replace seen name ();
        out := (name, loc) :: !out
      | _ -> ())
    | _ -> ());
    default_iterator.expr iter e
  in
  let iter = { default_iterator with expr = expr_iter } in
  iter.expr iter expr;
  List.rev !out

let binding_name (vb : Parsetree.value_binding) =
  let rec go (p : Parsetree.pattern) =
    match p.ppat_desc with
    | Ppat_var { txt; _ } -> Some txt
    | Ppat_constraint (inner, _) -> go inner
    | _ -> None
  in
  go vb.pvb_pat

let record_edges t ~file ~module_name (vb : Parsetree.value_binding) =
  match binding_name vb with
  | None -> ()
  | Some name ->
    let id = module_name ^ "." ^ name in
    let callees = referenced_idents t ~file vb.pvb_expr in
    let existing = Option.value ~default:[] (Hashtbl.find_opt t.edges id) in
    Hashtbl.replace t.edges id (existing @ callees)

(* Two sub-passes per file: declarations (defs, submodules, aliases)
   first, then edges — so a binding's references to later bindings of
   the same module (and to its [let rec ... and] siblings) still
   resolve to module-local nodes. *)
let add_source t ~file str =
  let module_name = module_name_of_file file in
  Hashtbl.replace t.file_module file module_name;
  Hashtbl.replace t.modules module_name ();
  (* [module S = Set.Make (Int)] aliases S to the functor's parent
     (Set): the instance's operations behave like the parent module's,
     which is what the effect catalogue knows about *)
  let register_functor_alias ~file sub (f : Parsetree.module_expr) =
    match f.pmod_desc with
    | Pmod_ident { txt; _ } -> (
      match flatten_longident txt with
      | Some segs when List.length segs >= 2 ->
        let parent = List.filteri (fun i _ -> i < List.length segs - 1) segs in
        Hashtbl.replace t.aliases (file, sub) parent
      | _ -> ())
    | _ -> ()
  in
  let rec declare ~module_name (items : Parsetree.structure) =
    List.iter
      (fun (si : Parsetree.structure_item) ->
        match si.pstr_desc with
        | Pstr_value (_, vbs) ->
          List.iter
            (fun vb ->
              match binding_name vb with
              | Some name ->
                let id = module_name ^ "." ^ name in
                (* same key from ANOTHER file (module-name collision
                   across directories): stack both defs, union their
                   edges — conservative.  Shadowing within one file
                   keeps the first binding. *)
                let from_this_file =
                  List.exists
                    (fun d -> d.d_file = file)
                    (Hashtbl.find_all t.defs id)
                in
                if not from_this_file then
                  Hashtbl.add t.defs id
                    {
                      d_file = file;
                      d_loc = vb.pvb_loc;
                      d_expr = vb.pvb_expr;
                      d_params = List.rev (fun_params [] vb.pvb_expr);
                    }
              | None -> ())
            vbs
        | Pstr_module mb -> (
          match mb.pmb_name.txt with
          | None -> ()
          | Some sub -> (
            match mb.pmb_expr.pmod_desc with
            | Pmod_ident { txt; _ } -> (
              match flatten_longident txt with
              | Some segs -> Hashtbl.replace t.aliases (file, sub) segs
              | None -> ())
            | Pmod_structure sub_items ->
              Hashtbl.replace t.modules sub ();
              declare ~module_name:sub sub_items
            | Pmod_apply (f, _) -> register_functor_alias ~file sub f
            | _ -> ()))
        | _ -> ())
      items
  in
  declare ~module_name str;
  (* [let module Q = Set.Make (Int) in ...] registers the same
     functor-parent alias; expression-level, so a dedicated sweep *)
  let letmodule_iter =
    let open Ast_iterator in
    let expr_iter iter (e : Parsetree.expression) =
      (match e.pexp_desc with
      | Pexp_letmodule ({ txt = Some sub; _ }, me, _) -> (
        match me.pmod_desc with
        | Pmod_apply (f, _) -> register_functor_alias ~file sub f
        | Pmod_ident { txt; _ } -> (
          match flatten_longident txt with
          | Some segs -> Hashtbl.replace t.aliases (file, sub) segs
          | None -> ())
        | _ -> ())
      | _ -> ());
      default_iterator.expr iter e
    in
    { default_iterator with expr = expr_iter }
  in
  letmodule_iter.structure letmodule_iter str;
  (* pass 2: edges only — defs are entirely owned by pass 1, so every
     module-local reference (including forward and recursive ones)
     resolves against the complete declaration set *)
  let rec harvest ~module_name (items : Parsetree.structure) =
    List.iter
      (fun (si : Parsetree.structure_item) ->
        match si.pstr_desc with
        | Pstr_value (_, vbs) -> List.iter (record_edges t ~file ~module_name) vbs
        | Pstr_module mb -> (
          match (mb.pmb_name.txt, mb.pmb_expr.pmod_desc) with
          | Some sub, Pmod_structure sub_items ->
            harvest ~module_name:sub sub_items
          | _ -> ())
        | _ -> ())
      items
  in
  harvest ~module_name str

(* ------------------------------------------------------------------ *)
(* queries                                                             *)
(* ------------------------------------------------------------------ *)

let defs t id = Hashtbl.find_all t.defs id
let has_def t id = Hashtbl.mem t.defs id

(* Sanctioned only when every definition under the key lives in a
   sanctioned owner: a same-named module elsewhere is still analysed. *)
let node_sanctioned t id =
  match defs t id with
  | [] -> false
  | ds -> List.for_all (fun d -> in_lib sanctioned d.d_file) ds

let edges t id =
  match Hashtbl.find_opt t.edges id with
  | None -> []
  | Some callees ->
    (* stable first-occurrence order, deduped by name *)
    let seen = Hashtbl.create 16 in
    List.filter
      (fun (name, _) ->
        if Hashtbl.mem seen name then false
        else begin
          Hashtbl.replace seen name ();
          true
        end)
      callees

let nodes t =
  Hashtbl.fold (fun id _ acc -> SSet.add id acc) t.defs SSet.empty
  |> SSet.elements

(* ------------------------------------------------------------------ *)
(* reachability                                                        *)
(* ------------------------------------------------------------------ *)

let reachable t ~roots =
  let visited = ref SSet.empty in
  let rec visit name =
    if not (SSet.mem name !visited) then begin
      visited := SSet.add name !visited;
      List.iter (fun (callee, _) -> visit callee) (edges t name)
    end
  in
  List.iter visit roots;
  SSet.elements !visited
