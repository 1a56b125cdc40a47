(* Dimensional analysis (U rules): collection of [@units] annotations
   from interfaces, then a conservative intra-procedural abstract
   evaluation of implementations.

   The evaluator maps every expression to one of three values:

     Known u  -- proven to carry unit [u]
     Literal  -- a numeric literal (polymorphic: adopts any unit)
     Unknown  -- no information; generates no diagnostic

   Diagnostics are only emitted when two *Known* units disagree, so the
   pass cannot produce a false positive from missing annotations — only
   from wrong ones. *)

type value = Known of Units.t | Literal | Unknown

type fn_sig = {
  params : (Asttypes.arg_label * Units.t option) list;
  ret : Units.t option;
}

type env = {
  vals : (string, fn_sig) Hashtbl.t;  (* "Module.value" *)
  fields : (string, Units.t option) Hashtbl.t;
      (* record field -> unit; [None] marks conflicting declarations *)
}

let empty_env () = { vals = Hashtbl.create 64; fields = Hashtbl.create 64 }

(* ------------------------------------------------------------------ *)
(* [@units] payloads on core types                                     *)
(* ------------------------------------------------------------------ *)

let units_payload (attr : Parsetree.attribute) =
  if attr.attr_name.txt <> "units" then None
  else
    match Callgraph.string_payload attr.attr_payload with
    | Some s -> Some (Units.parse s)
    | None -> Some (Error "expected a string literal such as [@units \"energy\"]")

let pos_error loc msg =
  let p = loc.Location.loc_start in
  Printf.sprintf "%s:%d:%d %s" p.pos_fname p.pos_lnum (p.pos_cnum - p.pos_bol) msg

(* First [@units] found wins; [error] fires on malformed payloads when
   provided (pass 2), and malformed annotations count as absent. *)
let unit_of_attrs ?error (attrs : Parsetree.attributes) =
  List.find_map
    (fun (attr : Parsetree.attribute) ->
      match units_payload attr with
      | Some (Ok u) -> Some u
      | Some (Error msg) ->
        Option.iter
          (fun f ->
            f (pos_error attr.attr_loc ("malformed [@units] payload: " ^ msg)))
          error;
        None
      | None -> None)
    attrs

let has_units_attr attrs =
  List.exists (fun (a : Parsetree.attribute) -> a.attr_name.txt = "units") attrs

(* The unit of a value of some core type: the annotation on the type
   itself, or — containers are transparent — on the single type argument
   of a constructor ([float array], [float option], ...). *)
let rec unit_of_core_type ?error (ty : Parsetree.core_type) =
  match unit_of_attrs ?error ty.ptyp_attributes with
  | Some u -> Some u
  | None -> (
    match ty.ptyp_desc with
    | Ptyp_constr (_, [ arg ]) -> unit_of_core_type ?error arg
    | Ptyp_alias (t, _) | Ptyp_poly (_, t) -> unit_of_core_type ?error t
    | _ -> None)

let rec decompose_arrow ?error (ty : Parsetree.core_type) =
  match ty.ptyp_desc with
  | Ptyp_arrow (lbl, a, b) ->
    let ps, ret = decompose_arrow ?error b in
    ((lbl, unit_of_core_type ?error a) :: ps, ret)
  | _ -> ([], unit_of_core_type ?error ty)

(* ------------------------------------------------------------------ *)
(* pass 1: collection                                                  *)
(* ------------------------------------------------------------------ *)

let add_field env name u =
  match Hashtbl.find_opt env.fields name with
  | None -> Hashtbl.replace env.fields name (Some u)
  | Some (Some u') when Units.equal u u' -> ()
  | Some _ -> Hashtbl.replace env.fields name None

let collect_labels env (labels : Parsetree.label_declaration list) =
  List.iter
    (fun (ld : Parsetree.label_declaration) ->
      match
        match unit_of_core_type ld.pld_type with
        | Some u -> Some u
        | None -> unit_of_attrs ld.pld_attributes
      with
      | Some u -> add_field env ld.pld_name.txt u
      | None -> ())
    labels

let collect_type_decl env (td : Parsetree.type_declaration) =
  match td.ptype_kind with
  | Ptype_record labels -> collect_labels env labels
  | Ptype_variant constructors ->
    List.iter
      (fun (c : Parsetree.constructor_declaration) ->
        match c.pcd_args with
        | Pcstr_record labels -> collect_labels env labels
        | Pcstr_tuple _ -> ())
      constructors
  | _ -> ()

let collect_interface env ~module_name (sg : Parsetree.signature) =
  List.iter
    (fun (item : Parsetree.signature_item) ->
      match item.psig_desc with
      | Psig_value vd ->
        let params, ret = decompose_arrow vd.pval_type in
        Hashtbl.replace env.vals
          (module_name ^ "." ^ vd.pval_name.txt)
          { params; ret }
      | Psig_type (_, decls) -> List.iter (collect_type_decl env) decls
      | _ -> ())
    sg

(* ------------------------------------------------------------------ *)
(* pass 2 over interfaces: U003                                        *)
(* ------------------------------------------------------------------ *)

let u003_message =
  "public float without a [@units] annotation; annotate as (float[@units \
   \"work|freq|time|energy|power|prob|dimensionless\"]) or suppress with \
   [@lint.allow \"U003\"]"

(* A [@units] annotation covers its whole subtree, so [(float[@units
   "freq"]) array] and [float array [@units "freq"]] are both fine. *)
let rec scan_floats ~report (ty : Parsetree.core_type) =
  if has_units_attr ty.ptyp_attributes then ()
  else
    match ty.ptyp_desc with
    | Ptyp_constr ({ txt = Lident "float"; _ }, []) ->
      report Rules.U003 ty.ptyp_loc u003_message
    | Ptyp_constr (_, args) -> List.iter (scan_floats ~report) args
    | Ptyp_arrow (_, a, b) ->
      scan_floats ~report a;
      scan_floats ~report b
    | Ptyp_tuple ts -> List.iter (scan_floats ~report) ts
    | Ptyp_alias (t, _) | Ptyp_poly (_, t) -> scan_floats ~report t
    | _ -> ()

let scan_labels ~report labels =
  List.iter
    (fun (ld : Parsetree.label_declaration) ->
      if not (has_units_attr ld.pld_attributes) then
        scan_floats ~report ld.pld_type)
    labels

let check_interface ~annotate_scope ~report ~error (sg : Parsetree.signature) =
  let surface_errors attrs = ignore (unit_of_attrs ~error attrs) in
  let typ_errors =
    let open Ast_iterator in
    {
      default_iterator with
      typ =
        (fun iter ty ->
          surface_errors ty.ptyp_attributes;
          default_iterator.typ iter ty);
    }
  in
  List.iter
    (fun (item : Parsetree.signature_item) ->
      typ_errors.signature_item typ_errors item;
      if annotate_scope then
        match item.psig_desc with
        | Psig_value vd -> scan_floats ~report vd.pval_type
        | Psig_type (_, decls) ->
          List.iter
            (fun (td : Parsetree.type_declaration) ->
              Option.iter (scan_floats ~report) td.ptype_manifest;
              match td.ptype_kind with
              | Ptype_record labels -> scan_labels ~report labels
              | Ptype_variant constructors ->
                List.iter
                  (fun (c : Parsetree.constructor_declaration) ->
                    match c.pcd_args with
                    | Pcstr_record labels -> scan_labels ~report labels
                    | Pcstr_tuple args -> List.iter (scan_floats ~report) args)
                  constructors
              | _ -> ())
            decls
        | _ -> ())
    sg

(* ------------------------------------------------------------------ *)
(* pass 2 over implementations: abstract evaluation (U001/U002)        *)
(* ------------------------------------------------------------------ *)

module SMap = Map.Make (String)

type ctx = {
  genv : env;
  own : string;
  report : Rules.t -> Location.t -> string -> unit;
  error : string -> unit;
}

let lookup_val ctx name =
  if String.contains name '.' then Hashtbl.find_opt ctx.genv.vals name
  else Hashtbl.find_opt ctx.genv.vals (ctx.own ^ "." ^ name)

let lookup_field ctx lid =
  match Callgraph.last_segment lid with
  | None -> None
  | Some name -> (
    match Hashtbl.find_opt ctx.genv.fields name with
    | Some (Some u) -> Some u
    | _ -> None)

(* Pure float idents that behave like literals. *)
let literal_idents =
  [
    "infinity"; "neg_infinity"; "nan"; "epsilon_float"; "max_float"; "min_float";
    "Float.infinity"; "Float.neg_infinity"; "Float.nan"; "Float.epsilon";
    "Float.max_float"; "Float.min_float"; "Float.pi";
  ]

let additive_ops = [ "+."; "-." ]
let comparison_ops = [ "<"; "<="; ">"; ">="; "="; "<>"; "Float.compare"; "Float.equal" ]
let minmax_ops = [ "min"; "max"; "Float.min"; "Float.max" ]
let preserve_ops =
  [ "~-."; "~+."; "abs_float"; "Float.abs"; "Float.neg"; "Float.succ"; "Float.pred" ]
let sqrt_ops = [ "sqrt"; "Float.sqrt" ]
let pow_ops = [ "**"; "Float.pow" ]
let get_ops = [ "Array.get"; "Array.unsafe_get"; "List.nth_opt" ]
let fold_ops = [ "Array.fold_left"; "List.fold_left" ]

(* U001: both operands Known with different units. *)
let checked_merge ctx what loc a b =
  match (a, b) with
  | Known ua, Known ub ->
    if Units.equal ua ub then Known ua
    else begin
      ctx.report Rules.U001 loc
        (Printf.sprintf "operands of %s have units %s and %s" what
           (Units.to_string ua) (Units.to_string ub));
      Unknown
    end
  | Known u, Literal | Literal, Known u -> Known u
  | Literal, Literal -> Literal
  | _ -> Unknown

(* Silent merge for control-flow joins. *)
let join a b =
  match (a, b) with
  | Known ua, Known ub -> if Units.equal ua ub then a else Unknown
  | Known _, Literal | Literal, Known _ -> ( match a with Known _ -> a | _ -> b)
  | Literal, Literal -> Literal
  | _ -> Unknown

let join_all = function [] -> Unknown | v :: vs -> List.fold_left join v vs

(* Integer-valued literal exponents of [**]. *)
let rec const_exponent (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_constant (Pconst_float (s, _)) -> float_of_string_opt s
  | Pexp_constant (Pconst_integer (s, _)) -> float_of_string_opt s
  | Pexp_apply
      ( { pexp_desc = Pexp_ident { txt = Lident ("~-." | "~-"); _ }; _ },
        [ (Nolabel, arg) ] ) ->
    Option.map (fun x -> -.x) (const_exponent arg)
  | _ -> None

let pow_value base exponent =
  match base with
  | Literal -> Literal
  | Unknown -> Unknown
  | Known u -> (
    match exponent with
    | Some x when Float.is_integer x -> Known (Units.pow u (int_of_float x))
    | Some 0.5 -> ( match Units.sqrt u with Some r -> Known r | None -> Unknown)
    | _ -> if Units.equal u Units.dimensionless then Known u else Unknown)

(* ------------------------------------------------------------------ *)
(* patterns                                                            *)
(* ------------------------------------------------------------------ *)

(* Bind the variables of simple patterns to the matched value; [Some]
   and annotation constraints are transparent, tuples are opaque. *)
let rec bind_pattern ctx env (pat : Parsetree.pattern) value =
  match pat.ppat_desc with
  | Ppat_var { txt; _ } -> SMap.add txt value env
  | Ppat_alias (p, { txt; _ }) -> bind_pattern ctx (SMap.add txt value env) p value
  | Ppat_constraint (p, ty) -> (
    match unit_of_core_type ~error:ctx.error ty with
    | Some u ->
      (match value with
      | Known uv when not (Units.equal uv u) ->
        ctx.report Rules.U002 pat.ppat_loc
          (Printf.sprintf "bound expression has units %s, but the annotation says %s"
             (Units.to_string uv) (Units.to_string u))
      | _ -> ());
      bind_pattern ctx env p (Known u)
    | None -> bind_pattern ctx env p value)
  | Ppat_construct (_, Some (_, p)) -> bind_pattern ctx env p value
  | Ppat_record (fields, _) ->
    List.fold_left
      (fun env (lid, p) ->
        let fv =
          match lookup_field ctx lid.Location.txt with
          | Some u -> Known u
          | None -> Unknown
        in
        bind_pattern ctx env p fv)
      env fields
  | Ppat_or (a, b) -> bind_pattern ctx (bind_pattern ctx env a value) b value
  | _ -> env

(* [let x : t = e] stores [t] in [pvb_constraint] (OCaml >= 5.1), not
   in the pattern — surface its [@units] as if the pattern carried it. *)
let binding_constraint_unit ctx (vb : Parsetree.value_binding) =
  match vb.pvb_constraint with
  | Some (Pvc_constraint { typ; _ }) -> unit_of_core_type ~error:ctx.error typ
  | Some (Pvc_coercion { coercion; _ }) ->
    unit_of_core_type ~error:ctx.error coercion
  | None -> None

(* ------------------------------------------------------------------ *)
(* expressions                                                         *)
(* ------------------------------------------------------------------ *)

let rec eval ctx env (e : Parsetree.expression) : value =
  match e.pexp_desc with
  | Pexp_constant (Pconst_float _ | Pconst_integer _) -> Literal
  | Pexp_constant _ -> Unknown
  | Pexp_ident { txt; _ } -> (
    match Callgraph.ident_name txt with
    | None -> Unknown
    | Some name -> (
      match SMap.find_opt name env with
      | Some v -> v
      | None ->
        if List.mem name literal_idents then Literal
        else (
          match lookup_val ctx name with
          | Some { params = []; ret = Some u } -> Known u
          | _ -> Unknown)))
  | Pexp_apply (fn, args) -> eval_apply ctx env e.pexp_loc fn args
  | Pexp_constraint (inner, ty) -> (
    let v = eval ctx env inner in
    match unit_of_core_type ~error:ctx.error ty with
    | Some u ->
      (match v with
      | Known uv when not (Units.equal uv u) ->
        ctx.report Rules.U002 e.pexp_loc
          (Printf.sprintf "expression has units %s, but the annotation says %s"
             (Units.to_string uv) (Units.to_string u))
      | _ -> ());
      Known u
    | None -> v)
  | Pexp_let (_, vbs, body) ->
    let env =
      List.fold_left
        (fun env' (vb : Parsetree.value_binding) ->
          let v = eval_binding_value ctx env vb in
          bind_pattern ctx env' vb.pvb_pat v)
        env vbs
    in
    eval ctx env body
  | Pexp_ifthenelse (c, a, b) ->
    ignore (eval ctx env c);
    let va = eval ctx env a in
    let vb = match b with Some b -> eval ctx env b | None -> Unknown in
    join va vb
  | Pexp_match (scrut, cases) | Pexp_try (scrut, cases) ->
    let vs = eval ctx env scrut in
    join_all
      (List.map
         (fun (case : Parsetree.case) ->
           let env = bind_pattern ctx env case.pc_lhs vs in
           Option.iter (fun g -> ignore (eval ctx env g)) case.pc_guard;
           eval ctx env case.pc_rhs)
         cases)
  | Pexp_sequence (a, b) ->
    ignore (eval ctx env a);
    eval ctx env b
  | Pexp_field (r, lid) -> (
    ignore (eval ctx env r);
    match lookup_field ctx lid.Location.txt with
    | Some u -> Known u
    | None -> Unknown)
  | Pexp_setfield (r, lid, rhs) ->
    ignore (eval ctx env r);
    check_field ctx env e.pexp_loc lid rhs;
    Unknown
  | Pexp_record (fields, base) ->
    Option.iter (fun b -> ignore (eval ctx env b)) base;
    List.iter (fun (lid, rhs) -> check_field ctx env e.pexp_loc lid rhs) fields;
    Unknown
  | Pexp_array elems ->
    join_all (List.map (eval ctx env) elems)
  | Pexp_tuple elems ->
    List.iter (fun x -> ignore (eval ctx env x)) elems;
    Unknown
  | Pexp_construct (_, arg) | Pexp_variant (_, arg) -> (
    (* [Some e] is transparent, like the option container itself *)
    match arg with Some a -> eval ctx env a | None -> Unknown)
  | Pexp_fun (_, default, pat, body) ->
    Option.iter (fun d -> ignore (eval ctx env d)) default;
    let env = bind_pattern ctx env pat Unknown in
    ignore (eval ctx env body);
    Unknown
  | Pexp_function cases ->
    List.iter
      (fun (case : Parsetree.case) ->
        let env = bind_pattern ctx env case.pc_lhs Unknown in
        Option.iter (fun g -> ignore (eval ctx env g)) case.pc_guard;
        ignore (eval ctx env case.pc_rhs))
      cases;
    Unknown
  | Pexp_open (_, inner)
  | Pexp_letmodule (_, _, inner)
  | Pexp_letexception (_, inner)
  | Pexp_lazy inner
  | Pexp_newtype (_, inner) ->
    eval ctx env inner
  | Pexp_assert inner ->
    ignore (eval ctx env inner);
    Unknown
  | Pexp_while (c, body) ->
    ignore (eval ctx env c);
    ignore (eval ctx env body);
    Unknown
  | Pexp_for (pat, lo, hi, _, body) ->
    ignore (eval ctx env lo);
    ignore (eval ctx env hi);
    let env = bind_pattern ctx env pat Unknown in
    ignore (eval ctx env body);
    Unknown
  | _ ->
    (* anything else: walk children so nested expressions still get
       checked, with no unit information of its own *)
    let it =
      {
        Ast_iterator.default_iterator with
        expr = (fun _ child -> ignore (eval ctx env child));
      }
    in
    Ast_iterator.default_iterator.expr it e;
    Unknown

and check_field ctx env loc lid rhs =
  let v = eval ctx env rhs in
  match (lookup_field ctx lid.Location.txt, v) with
  | Some u, Known uv when not (Units.equal uv u) ->
    let name =
      match Callgraph.last_segment lid.Location.txt with
      | Some s -> s
      | None -> "?"
    in
    ctx.report Rules.U002 loc
      (Printf.sprintf "record field %s expects units %s, got %s" name
         (Units.to_string u) (Units.to_string uv))
  | _ -> ()

and eval_apply ctx env loc fn args =
  let name =
    match fn.pexp_desc with
    | Pexp_ident { txt; _ } -> Callgraph.ident_name txt
    | _ ->
      ignore (eval ctx env fn);
      None
  in
  let values () = List.map (fun (_, a) -> eval ctx env a) args in
  match (name, args) with
  | Some op, [ (Nolabel, a); (Nolabel, b) ] when List.mem op additive_ops ->
    checked_merge ctx (Printf.sprintf "(%s)" op) loc (eval ctx env a)
      (eval ctx env b)
  | Some op, [ (Nolabel, a); (Nolabel, b) ] when List.mem op comparison_ops ->
    ignore (checked_merge ctx op loc (eval ctx env a) (eval ctx env b));
    Unknown
  | Some op, [ (Nolabel, a); (Nolabel, b) ] when List.mem op minmax_ops ->
    checked_merge ctx op loc (eval ctx env a) (eval ctx env b)
  | Some "*.", [ (Nolabel, a); (Nolabel, b) ] -> (
    match (eval ctx env a, eval ctx env b) with
    | Known ua, Known ub -> Known (Units.mul ua ub)
    | Known u, Literal | Literal, Known u -> Known u
    | Literal, Literal -> Literal
    | _ -> Unknown)
  | Some "/.", [ (Nolabel, a); (Nolabel, b) ] -> (
    match (eval ctx env a, eval ctx env b) with
    | Known ua, Known ub -> Known (Units.div ua ub)
    | Known u, Literal -> Known u
    | Literal, Known u -> Known (Units.inv u)
    | Literal, Literal -> Literal
    | _ -> Unknown)
  | Some op, [ (Nolabel, a); (Nolabel, b) ] when List.mem op pow_ops ->
    ignore (eval ctx env b);
    pow_value (eval ctx env a) (const_exponent b)
  | Some op, [ (Nolabel, a) ] when List.mem op preserve_ops -> eval ctx env a
  | Some op, [ (Nolabel, a) ] when List.mem op sqrt_ops -> (
    match eval ctx env a with
    | Known u -> ( match Units.sqrt u with Some r -> Known r | None -> Unknown)
    | v -> v)
  | Some op, (Nolabel, a) :: rest when List.mem op get_ops ->
    List.iter (fun (_, x) -> ignore (eval ctx env x)) rest;
    eval ctx env a
  | Some "Option.value", [ (Nolabel, a); (Labelled "default", d) ]
  | Some "Option.value", [ (Labelled "default", d); (Nolabel, a) ] ->
    checked_merge ctx "Option.value" loc (eval ctx env a) (eval ctx env d)
  | Some op, [ (Nolabel, f); (Nolabel, init); (Nolabel, seq) ]
    when List.mem op fold_ops -> (
    match f.pexp_desc with
    | Pexp_ident { txt = Lident ("+." | "-."); _ } ->
      checked_merge ctx (op ^ " (+.)") loc (eval ctx env init) (eval ctx env seq)
    | Pexp_ident { txt; _ }
      when match Callgraph.ident_name txt with
           | Some n -> List.mem n minmax_ops
           | None -> false ->
      checked_merge ctx (op ^ " min/max") loc (eval ctx env init)
        (eval ctx env seq)
    | _ ->
      ignore (eval ctx env f);
      ignore (eval ctx env init);
      ignore (eval ctx env seq);
      Unknown)
  | Some "|>", [ (Nolabel, x); (Nolabel, f) ] ->
    eval_apply ctx env loc f [ (Asttypes.Nolabel, x) ]
  | Some "@@", [ (Nolabel, f); (Nolabel, x) ] ->
    eval_apply ctx env loc f [ (Asttypes.Nolabel, x) ]
  | Some name, _ -> (
    match lookup_val ctx name with
    | Some fs -> check_call ctx env loc name fs args
    | None ->
      ignore (values ());
      Unknown)
  | None, _ ->
    ignore (values ());
    Unknown

(* U002 at an annotated call site: match actuals to declared parameters
   (labels by name, positional in order) and compare Known units. *)
and check_call ctx env loc name fs args =
  let remaining = ref fs.params in
  let take lbl =
    match lbl with
    | Asttypes.Labelled s | Asttypes.Optional s ->
      let matches = function
        | (Asttypes.Labelled s' | Asttypes.Optional s'), _ -> s = s'
        | _ -> false
      in
      let found = List.find_opt matches !remaining in
      (match found with
      | Some _ -> remaining := List.filter (fun p -> not (matches p)) !remaining
      | None -> ());
      Option.map snd found
    | Asttypes.Nolabel -> (
      let rec split acc = function
        | ((Asttypes.Nolabel, _) as p) :: rest -> Some (p, List.rev_append acc rest)
        | p :: rest -> split (p :: acc) rest
        | [] -> None
      in
      match split [] !remaining with
      | Some ((_, u), rest) ->
        remaining := rest;
        Some u
      | None -> None)
  in
  List.iter
    (fun (lbl, arg) ->
      let declared = take lbl in
      let v = eval ctx env arg in
      match (declared, v) with
      | Some (Some u), Known uv when not (Units.equal uv u) ->
        let what =
          match lbl with
          | Asttypes.Labelled s | Asttypes.Optional s -> "~" ^ s
          | Asttypes.Nolabel -> "argument"
        in
        ctx.report Rules.U002 arg.Parsetree.pexp_loc
          (Printf.sprintf "%s of %s has units %s, expected %s" what name
             (Units.to_string uv) (Units.to_string u))
      | _ -> ())
    args;
  ignore loc;
  let fully_applied =
    List.for_all
      (function Asttypes.Optional _, _ -> true | _ -> false)
      !remaining
  in
  match (fully_applied, fs.ret) with
  | true, Some u -> Known u
  | _ -> Unknown

(* Evaluate a binding's right-hand side and check/apply the
   [pvb_constraint] annotation of [let x : (float[@units "u"]) = e]. *)
and eval_binding_value ctx env (vb : Parsetree.value_binding) =
  let v = eval ctx env vb.pvb_expr in
  match binding_constraint_unit ctx vb with
  | Some u ->
    (match v with
    | Known uv when not (Units.equal uv u) ->
      ctx.report Rules.U002 vb.pvb_expr.Parsetree.pexp_loc
        (Printf.sprintf
           "bound expression has units %s, but the annotation says %s"
           (Units.to_string uv) (Units.to_string u))
    | _ -> ());
    Known u
  | None -> v

(* ------------------------------------------------------------------ *)
(* top level                                                           *)
(* ------------------------------------------------------------------ *)

(* Walk the [fun]-chain of an exported definition binding parameters to
   the units its own signature declares. *)
let rec bind_params ctx env params (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_fun (lbl, default, pat, body) ->
    Option.iter (fun d -> ignore (eval ctx env d)) default;
    let rec take acc = function
      | (l, u) :: rest ->
        let hit =
          match (lbl, l) with
          | ( (Asttypes.Labelled s | Asttypes.Optional s),
              (Asttypes.Labelled s' | Asttypes.Optional s') ) ->
            s = s'
          | Asttypes.Nolabel, Asttypes.Nolabel -> true
          | _ -> false
        in
        if hit then (Some u, List.rev_append acc rest)
        else take ((l, u) :: acc) rest
      | [] -> (None, List.rev acc)
    in
    let declared, params = take [] params in
    let value = match declared with Some (Some u) -> Known u | _ -> Unknown in
    bind_params ctx (bind_pattern ctx env pat value) params body
  | _ -> (env, params, e)

let check_binding ctx env (vb : Parsetree.value_binding) =
  let bound_name =
    match vb.pvb_pat.ppat_desc with
    | Ppat_var { txt; _ } -> Some txt
    | Ppat_constraint ({ ppat_desc = Ppat_var { txt; _ }; _ }, _) -> Some txt
    | _ -> None
  in
  let own_sig =
    match bound_name with
    | Some n -> lookup_val ctx (ctx.own ^ "." ^ n)
    | None -> None
  in
  match own_sig with
  | Some fs when fs.params <> [] ->
    let benv, _, body = bind_params ctx env fs.params vb.pvb_expr in
    let v = eval ctx benv body in
    (match (fs.ret, v) with
    | Some u, Known uv when not (Units.equal uv u) ->
      ctx.report Rules.U002 body.Parsetree.pexp_loc
        (Printf.sprintf
           "body of %s.%s has units %s, but its signature declares %s" ctx.own
           (Option.value bound_name ~default:"?")
           (Units.to_string uv) (Units.to_string u))
    | _ -> ());
    env
  | Some { params = _ :: _; _ } -> env (* unreachable: guarded above *)
  | Some { params = []; ret } ->
    let v = eval_binding_value ctx env vb in
    (match (ret, v) with
    | Some u, Known uv when not (Units.equal uv u) ->
      ctx.report Rules.U002 vb.pvb_expr.Parsetree.pexp_loc
        (Printf.sprintf "%s.%s has units %s, but its signature declares %s"
           ctx.own
           (Option.value bound_name ~default:"?")
           (Units.to_string uv) (Units.to_string u))
    | _ -> ());
    let value = match ret with Some u -> Known u | None -> v in
    bind_pattern ctx env vb.pvb_pat value
  | None ->
    let v = eval_binding_value ctx env vb in
    bind_pattern ctx env vb.pvb_pat v

let rec check_items ctx env (items : Parsetree.structure) =
  match items with
  | [] -> ()
  | item :: rest ->
    let env =
      match item.pstr_desc with
      | Pstr_value (_, vbs) -> List.fold_left (check_binding ctx) env vbs
      | Pstr_eval (e, _) ->
        ignore (eval ctx env e);
        env
      | Pstr_module mb ->
        check_module ctx env mb.pmb_expr;
        env
      | Pstr_recmodule mbs ->
        List.iter (fun (mb : Parsetree.module_binding) -> check_module ctx env mb.pmb_expr) mbs;
        env
      | _ -> env
    in
    check_items ctx env rest

and check_module ctx env (me : Parsetree.module_expr) =
  match me.pmod_desc with
  | Pmod_structure items -> check_items ctx env items
  | Pmod_functor (_, body) -> check_module ctx env body
  | Pmod_constraint (inner, _) -> check_module ctx env inner
  | _ -> ()

let check_structure genv ~module_name ~report ~error (str : Parsetree.structure) =
  let ctx = { genv; own = module_name; report; error } in
  check_items ctx SMap.empty str
