(* May-raise effect inference: a monotone fixpoint over the shared
   {!Callgraph}.  See effects.mli for the lattice and the soundness
   caveats; the short version is that summaries over-approximate
   except through three deliberate holes — ambient exceptions
   (Assert_failure, Division_by_zero, bounds), unknown externals that
   are referenced but never applied, and callbacks invoked through a
   parameter (whose effects are charged to the caller that built the
   closure). *)

module SSet = Callgraph.SSet

type t = Known of SSet.t | Top

let pure = Known SSet.empty
let is_pure = function Known s -> SSet.is_empty s | Top -> false

let equal a b =
  match (a, b) with
  | Top, Top -> true
  | Known a, Known b -> SSet.equal a b
  | _ -> false

let union a b =
  match (a, b) with
  | Top, _ | _, Top -> Top
  | Known a, Known b -> Known (SSet.union a b)

let mem exn = function Top -> true | Known s -> SSet.mem exn s
let to_list = function Top -> None | Known s -> Some (SSet.elements s)
let known_one exn = Known (SSet.singleton exn)

(* ------------------------------------------------------------------ *)
(* catalogues                                                          *)
(* ------------------------------------------------------------------ *)

(* Known-partial stdlib names (the E002 catalogue plus container pops
   and channel I/O), keyed by resolved identifier.  Exceptions are
   identified by constructor last segment. *)
let raising_catalogue =
  [
    ("List.hd", [ "Failure" ]);
    ("List.tl", [ "Failure" ]);
    ("List.nth", [ "Failure"; "Invalid_argument" ]);
    ("List.find", [ "Not_found" ]);
    ("List.assoc", [ "Not_found" ]);
    ("Option.get", [ "Invalid_argument" ]);
    ("Hashtbl.find", [ "Not_found" ]);
    ("Float.of_string", [ "Failure" ]);
    ("int_of_string", [ "Failure" ]);
    ("bool_of_string", [ "Invalid_argument" ]);
    ("char_of_int", [ "Invalid_argument" ]);
    ("Queue.pop", [ "Empty" ]);
    ("Queue.take", [ "Empty" ]);
    ("Queue.peek", [ "Empty" ]);
    ("Queue.top", [ "Empty" ]);
    ("Stack.pop", [ "Empty" ]);
    ("Stack.top", [ "Empty" ]);
    ("input_line", [ "End_of_file" ]);
    ("input_char", [ "End_of_file" ]);
    ("open_in", [ "Sys_error" ]);
    ("open_in_bin", [ "Sys_error" ]);
    ("open_in_gen", [ "Sys_error" ]);
    ("open_out", [ "Sys_error" ]);
    ("open_out_bin", [ "Sys_error" ]);
    ("open_out_gen", [ "Sys_error" ]);
    ("output_string", [ "Sys_error" ]);
    ("output_char", [ "Sys_error" ]);
    ("output_bytes", [ "Sys_error" ]);
    ("close_out", [ "Sys_error" ]);
    ("close_in", [ "Sys_error" ]);
    ("Sys.getenv", [ "Not_found" ]);
  ]

let raising_tbl =
  let tbl = Hashtbl.create 64 in
  List.iter (fun (k, v) -> Hashtbl.replace tbl k v) raising_catalogue;
  tbl

(* Stdlib modules whose (non-catalogued) functions we trust not to
   raise anything worth tracking.  Checked AFTER the raising
   catalogue, so List.hd still counts. *)
let pure_prefixes =
  [
    "List."; "ListLabels."; "Array."; "ArrayLabels."; "String."; "Bytes.";
    "Char."; "Float."; "Int."; "Int32."; "Int64."; "Nativeint."; "Bool.";
    "Option."; "Result."; "Seq."; "Printf."; "Format."; "Buffer.";
    "Hashtbl."; "Queue."; "Stack."; "Fun."; "Filename."; "Lexing.";
    "Either."; "Atomic."; "Mutex."; "Condition."; "Printexc.";
    (* [module S = Set.Make (...)] instances alias to the functor
       parent (see Callgraph).  Their partial operations ([min_elt],
       [find], ...) are treated as non-raising: in this codebase every
       use sits behind an [is_empty]/[cardinal] guard the flow-
       insensitive analysis cannot see, so cataloguing them would only
       manufacture false [@raise Not_found] contracts (DESIGN.md §9) *)
    "Set."; "Map.";
  ]

let pure_bare =
  [
    "+"; "-"; "*"; "/"; "mod"; "land"; "lor"; "lxor"; "lsl"; "lsr"; "asr";
    "+."; "-."; "*."; "/."; "**"; "@"; "^"; "="; "<>"; "<"; ">"; "<="; ">=";
    "=="; "!="; "&&"; "||"; "not"; "ignore"; "fst"; "snd"; "min"; "max";
    "abs"; "abs_float"; "sqrt"; "exp"; "log"; "log10"; "ceil"; "floor";
    "truncate"; "float_of_int"; "int_of_float"; "float_of_string_opt";
    "int_of_string_opt"; "bool_of_string_opt"; "string_of_int";
    "string_of_float"; "string_of_bool"; "int_of_char"; "succ"; "pred";
    "incr"; "decr"; "ref"; "!"; ":="; "~-"; "~-."; "~+"; "~+."; "|>"; "@@";
    "compare"; "print_string"; "print_endline"; "print_newline"; "print_int";
    "print_float"; "print_char"; "prerr_string"; "prerr_endline";
    "prerr_newline"; "exit"; "flush"; "flush_all"; "close_out_noerr";
    "close_in_noerr"; "at_exit"; "raise"; "raise_notrace"; "failwith";
    "invalid_arg";
    (* [let open Int64 in ...] (and friends) turns these module
       operations into bare names; Division_by_zero is ambient
       arithmetic, out of scope like [/] above *)
    "add"; "sub"; "mul"; "div"; "rem"; "neg"; "logand"; "logor"; "logxor";
    "lognot"; "shift_left"; "shift_right"; "shift_right_logical"; "of_int";
    "to_int"; "of_float"; "to_float"; "equal"; "to_string_opt"; "of_string_opt";
  ]

let pure_tbl =
  let tbl = Hashtbl.create 128 in
  List.iter (fun k -> Hashtbl.replace tbl k ()) pure_bare;
  tbl

let is_pure_name name =
  Hashtbl.mem pure_tbl name
  || List.exists (fun prefix -> String.starts_with ~prefix name) pure_prefixes

(* ------------------------------------------------------------------ *)
(* environment                                                         *)
(* ------------------------------------------------------------------ *)

type env = {
  graph : Callgraph.t;
  summaries : (string, t) Hashtbl.t;
  locals : (string, t) Hashtbl.t;
  raise_sites : (string * string, Location.t) Hashtbl.t;
}

let graph env = env.graph

let summary env id =
  match Hashtbl.find_opt env.summaries id with Some s -> s | None -> pure

let direct env id =
  match Hashtbl.find_opt env.locals id with Some s -> s | None -> pure

let raise_site env id exn = Hashtbl.find_opt env.raise_sites (id, exn)

(* ------------------------------------------------------------------ *)
(* expression evaluation                                               *)
(* ------------------------------------------------------------------ *)

type eval_ctx = {
  env : env;
  file : string;
  bound : SSet.t;  (* names bound anywhere inside the enclosing binding *)
  deep : bool;  (* contribute callee-node fixpoint summaries *)
  record : (string -> Location.t -> unit) option;
  masked : Parsetree.expression -> bool;
}

let record ctx exn loc =
  match ctx.record with Some f -> f exn loc | None -> ()

(* Immediate child expressions: the default iterator calls [sub.expr]
   exactly once per direct subexpression, so a non-recursive hook
   collects one layer. *)
let immediate_children (e : Parsetree.expression) =
  let acc = ref [] in
  let open Ast_iterator in
  let iter = { default_iterator with expr = (fun _ c -> acc := c :: !acc) } in
  default_iterator.expr iter e;
  List.rev !acc

(* What an unguarded handler pattern covers. *)
let rec handled (p : Parsetree.pattern) =
  match p.ppat_desc with
  | Ppat_any | Ppat_var _ -> `All
  | Ppat_alias (inner, _) -> handled inner
  | Ppat_construct ({ txt; _ }, _) -> (
    match Callgraph.last_segment txt with
    | Some n -> `Some [ n ]
    | None -> `Unknown)
  | Ppat_or (a, b) -> (
    match (handled a, handled b) with
    | `All, _ | _, `All -> `All
    | `Some xs, `Some ys -> `Some (xs @ ys)
    | _ -> `Unknown)
  | _ -> `Unknown

let rec is_catch_all (p : Parsetree.pattern) =
  match p.ppat_desc with
  | Ppat_any | Ppat_var _ -> true
  | Ppat_alias (inner, _) -> is_catch_all inner
  | Ppat_or (a, b) -> is_catch_all a || is_catch_all b
  | _ -> false

let handler_pattern (c : Parsetree.case) =
  match c.pc_lhs.ppat_desc with
  | Ppat_exception p -> p
  | _ -> c.pc_lhs

(* Narrow a body summary through handler cases.  Guarded handlers may
   decline, so they narrow nothing. *)
let narrow eff cases =
  List.fold_left
    (fun eff (c : Parsetree.case) ->
      if c.pc_guard <> None then eff
      else
        match handled (handler_pattern c) with
        | `All -> pure
        | `Some names -> (
          match eff with
          | Top -> Top
          | Known s ->
            Known (List.fold_left (fun s n -> SSet.remove n s) s names))
        | `Unknown -> eff)
    eff cases

let is_exception_case (c : Parsetree.case) =
  match c.pc_lhs.ppat_desc with Ppat_exception _ -> true | _ -> false

let rec constant_pattern (p : Parsetree.pattern) =
  match p.ppat_desc with
  | Ppat_constant _ | Ppat_interval _ -> true
  | Ppat_or (a, b) -> constant_pattern a && constant_pattern b
  | Ppat_alias (inner, _) -> constant_pattern inner
  | _ -> false

(* A match/function over constants with no unguarded catch-all cannot
   be exhaustive: Match_failure.  Constructor coverage needs types, so
   only the constant shape is claimed (sound for what it reports). *)
let partial_constant_match cases =
  let value_cases =
    List.filter (fun c -> not (is_exception_case c)) cases
  in
  value_cases <> []
  && (not
        (List.exists
           (fun (c : Parsetree.case) ->
             c.pc_guard = None && is_catch_all c.pc_lhs)
           value_cases))
  && List.for_all
       (fun (c : Parsetree.case) -> constant_pattern c.pc_lhs)
       value_cases

let rec eval ctx (e : Parsetree.expression) : t =
  if ctx.masked e then pure
  else
    match e.pexp_desc with
    | Pexp_ident { txt; _ } -> ident_effect ctx txt
    | Pexp_apply (head, args) -> apply_effect ctx head args
    | Pexp_try (body, cases) ->
      union (narrow (eval ctx body) cases) (cases_effect ctx cases)
    | Pexp_letexception (ext, body) -> (
      (* [let exception E in body]: E is scoped — no caller can write
         a handler for it, so it is dropped from the escaping summary
         (in this codebase such exceptions are always caught inside
         the scope; the charge-at-definition model would otherwise
         keep them even past their local handler) *)
      match eval ctx body with
      | Top -> Top
      | Known s -> Known (SSet.remove ext.pext_name.txt s))
    | Pexp_match (scrut, cases) ->
      let exn_cases = List.filter is_exception_case cases in
      let scrut_eff = narrow (eval ctx scrut) exn_cases in
      let partial =
        if partial_constant_match cases then begin
          record ctx "Match_failure" e.pexp_loc;
          known_one "Match_failure"
        end
        else pure
      in
      union (union scrut_eff partial) (cases_effect ctx cases)
    | Pexp_function cases ->
      let partial =
        if partial_constant_match cases then begin
          record ctx "Match_failure" e.pexp_loc;
          known_one "Match_failure"
        end
        else pure
      in
      union partial (cases_effect ctx cases)
    | _ ->
      List.fold_left
        (fun acc c -> union acc (eval ctx c))
        pure (immediate_children e)

and cases_effect ctx cases =
  List.fold_left
    (fun acc (c : Parsetree.case) ->
      let acc =
        match c.pc_guard with Some g -> union acc (eval ctx g) | None -> acc
      in
      union acc (eval ctx c.pc_rhs))
    pure cases

(* A bare reference to a raising node counts (passing it to List.map
   is reachability, matching the callgraph's edge semantics); a bare
   reference to anything else contributes nothing. *)
and ident_effect ctx txt =
  match Callgraph.resolve ctx.env.graph ~file:ctx.file txt with
  | None -> pure
  | Some name ->
    if
      ctx.deep
      && Callgraph.has_def ctx.env.graph name
      && not (Callgraph.node_sanctioned ctx.env.graph name)
    then summary ctx.env name
    else pure

and apply_effect ctx (head : Parsetree.expression) args =
  (* re-associate pipes so [x |> f] and [f @@ x] apply [f] *)
  match (head.pexp_desc, args) with
  | Pexp_ident { txt = Longident.Lident "|>"; _ }, [ (_, x); (_, f) ]
  | Pexp_ident { txt = Longident.Lident "@@"; _ }, [ (_, f); (_, x) ] -> (
    match f.pexp_desc with
    | Pexp_apply (inner_head, inner_args) ->
      apply_effect ctx inner_head (inner_args @ [ (Asttypes.Nolabel, x) ])
    | _ -> apply_effect ctx f [ (Asttypes.Nolabel, x) ])
  | _ ->
    let arg_eff =
      List.fold_left (fun acc (_, a) -> union acc (eval ctx a)) pure args
    in
    let head_eff =
      match head.pexp_desc with
      | Pexp_ident { txt; loc } -> (
        match txt with
        | Longident.Lident ("raise" | "raise_notrace") -> (
          match args with
          | (_, { pexp_desc = Pexp_construct ({ txt = c; _ }, _); _ }) :: _
            -> (
            match Callgraph.last_segment c with
            | Some exn ->
              record ctx exn loc;
              known_one exn
            | None -> Top)
          | _ -> Top (* raising a computed exception value *))
        | Longident.Lident "failwith" ->
          record ctx "Failure" loc;
          known_one "Failure"
        | Longident.Lident "invalid_arg" ->
          record ctx "Invalid_argument" loc;
          known_one "Invalid_argument"
        | _ -> (
          match Callgraph.resolve ctx.env.graph ~file:ctx.file txt with
          | None -> Top
          | Some name -> (
            match Hashtbl.find_opt raising_tbl name with
            | Some exns ->
              List.iter (fun exn -> record ctx exn loc) exns;
              Known (SSet.of_list exns)
            | None ->
              if is_pure_name name then pure
              else if SSet.mem name ctx.bound then
                pure (* local closure or parameter: charged elsewhere *)
              else if Callgraph.has_def ctx.env.graph name then
                if Callgraph.node_sanctioned ctx.env.graph name then pure
                else if ctx.deep then summary ctx.env name
                else pure
              else Top (* unknown external in call position *))))
      | Pexp_field (record_expr, _) ->
        (* [obj.f x]: a callback stored in a record field.  Like a
           bound parameter, the closure's body was charged where the
           closure was built (eval descends through [Pexp_fun]), so
           the application itself contributes nothing beyond
           evaluating the record expression. *)
        eval ctx record_expr
      | _ -> union (eval ctx head) Top (* applying a computed function *)
    in
    union arg_eff head_eff

(* ------------------------------------------------------------------ *)
(* fixpoint                                                            *)
(* ------------------------------------------------------------------ *)

let make_ctx ?record ?(mask = fun _ -> false) ?(bound = SSet.empty) env ~file
    ~deep expr =
  {
    env;
    file;
    bound = SSet.union bound (Callgraph.bound_names expr);
    deep;
    record;
    masked = mask;
  }

let node_effect env ~deep id =
  List.fold_left
    (fun acc d ->
      let record =
        if deep then None
        else
          Some
            (fun exn loc ->
              if not (Hashtbl.mem env.raise_sites (id, exn)) then
                Hashtbl.add env.raise_sites (id, exn) loc)
      in
      let ctx =
        make_ctx ?record env ~file:d.Callgraph.d_file ~deep d.Callgraph.d_expr
      in
      union acc (eval ctx d.Callgraph.d_expr))
    pure
    (Callgraph.defs env.graph id)

let infer graph =
  let env =
    {
      graph;
      summaries = Hashtbl.create 256;
      locals = Hashtbl.create 256;
      raise_sites = Hashtbl.create 128;
    }
  in
  let ids = Callgraph.nodes graph in
  List.iter (fun id -> Hashtbl.replace env.summaries id pure) ids;
  (* monotone fixpoint; eval is monotone in the summary table, so the
     extra union-with-current is belt and braces for termination *)
  let changed = ref true in
  let iterations = ref 0 in
  while !changed && !iterations < 64 do
    incr iterations;
    changed := false;
    List.iter
      (fun id ->
        let cur = summary env id in
        let next = union cur (node_effect env ~deep:true id) in
        if not (equal cur next) then begin
          Hashtbl.replace env.summaries id next;
          changed := true
        end)
      ids
  done;
  (* direct (intraprocedural) seeds + raise sites, for witnesses *)
  List.iter
    (fun id ->
      Hashtbl.replace env.locals id (node_effect env ~deep:false id))
    ids;
  env

(* ------------------------------------------------------------------ *)
(* public expression queries                                           *)
(* ------------------------------------------------------------------ *)

let expr_summary ?mask ?bound env ~file expr =
  eval (make_ctx ?mask ?bound env ~file ~deep:true expr) expr

(* ------------------------------------------------------------------ *)
(* witnesses                                                           *)
(* ------------------------------------------------------------------ *)

let introduces env id exn =
  match direct env id with Known s -> SSet.mem exn s | Top -> false

let witness env start ~exn =
  if not (mem exn (summary env start)) then []
  else begin
    let visited = Hashtbl.create 32 in
    let parent = Hashtbl.create 32 in
    let q = Queue.create () in
    Hashtbl.replace visited start ();
    Queue.add start q;
    let found = ref None in
    let continue = ref true in
    while !found = None && !continue do
      match Queue.take_opt q with
      | None -> continue := false
      | Some n ->
      if introduces env n exn then found := Some n
      else
        List.iter
          (fun (callee, loc) ->
            if
              (not (Hashtbl.mem visited callee))
              && mem exn (summary env callee)
              && Callgraph.has_def env.graph callee
              && not (Callgraph.node_sanctioned env.graph callee)
            then begin
              Hashtbl.replace visited callee ();
              Hashtbl.replace parent callee (n, loc);
              Queue.add callee q
            end)
          (Callgraph.edges env.graph n)
    done;
    match !found with
    | None -> []
    | Some stop ->
      let rec build acc n =
        match Hashtbl.find_opt parent n with
        | None -> acc
        | Some (prev, loc) -> build ((n, loc) :: acc) prev
      in
      let hops = build [] stop in
      let site =
        match raise_site env stop exn with
        | Some l -> l
        | None -> (
          match Callgraph.defs env.graph stop with
          | d :: _ -> d.Callgraph.d_loc
          | [] -> Location.none)
      in
      hops @ [ (exn, site) ]
  end

type evidence = {
  e_exn : string option;
  e_hops : (string * Location.t) list;
}

(* First raising thing in reading order.  Indicative, not exact: a
   try-block that stays impure is descended without replaying the
   narrowing, so the named hop may occasionally be a handled one — the
   summary (not the evidence) is what decides whether to report. *)
let expr_evidence ?(mask = fun _ -> false) ?bound env ~file expr =
  let ctx = make_ctx ~mask ?bound env ~file ~deep:true expr in
  let node_evidence name loc =
    match summary env name with
    | Known s when not (SSet.is_empty s) ->
      let exn = SSet.min_elt s in
      Some { e_exn = Some exn; e_hops = (name, loc) :: witness env name ~exn }
    | Top -> Some { e_exn = None; e_hops = [ (name, loc) ] }
    | _ -> None
  in
  let rec search (e : Parsetree.expression) =
    if ctx.masked e then None
    else
      match e.pexp_desc with
      | Pexp_try (body, cases) ->
        if is_pure (eval ctx e) then None
        else first (body :: List.map (fun c -> c.Parsetree.pc_rhs) cases)
      | Pexp_apply (head, args) -> (
        let from_args () = first (List.map snd args) in
        match head.pexp_desc with
        | Pexp_ident { txt; loc } -> (
          match txt with
          | Longident.Lident ("raise" | "raise_notrace") ->
            let exn =
              match args with
              | (_, { pexp_desc = Pexp_construct ({ txt = c; _ }, _); _ })
                :: _ ->
                Callgraph.last_segment c
              | _ -> None
            in
            Some { e_exn = exn; e_hops = [ ("raise", loc) ] }
          | Longident.Lident "failwith" ->
            Some { e_exn = Some "Failure"; e_hops = [ ("failwith", loc) ] }
          | Longident.Lident "invalid_arg" ->
            Some
              {
                e_exn = Some "Invalid_argument";
                e_hops = [ ("invalid_arg", loc) ];
              }
          | _ -> (
            match from_args () with
            | Some ev -> Some ev
            | None -> (
              match Callgraph.resolve env.graph ~file txt with
              | None -> None
              | Some name -> (
                match Hashtbl.find_opt raising_tbl name with
                | Some (exn :: _) ->
                  Some { e_exn = Some exn; e_hops = [ (name, loc) ] }
                | _ ->
                  if
                    is_pure_name name
                    || SSet.mem name ctx.bound
                    || Callgraph.node_sanctioned env.graph name
                  then None
                  else if Callgraph.has_def env.graph name then
                    node_evidence name loc
                  else Some { e_exn = None; e_hops = [ (name, loc) ] }))))
        | _ -> (
          match from_args () with Some ev -> Some ev | None -> search head))
      | Pexp_ident { txt; loc } -> (
        match Callgraph.resolve env.graph ~file txt with
        | Some name
          when Callgraph.has_def env.graph name
               && not (Callgraph.node_sanctioned env.graph name) ->
          node_evidence name loc
        | _ -> None)
      | Pexp_match (scrut, cases) when partial_constant_match cases -> (
        match search scrut with
        | Some ev -> Some ev
        | None ->
          Some
            {
              e_exn = Some "Match_failure";
              e_hops = [ ("partial match", e.pexp_loc) ];
            })
      | Pexp_function cases when partial_constant_match cases ->
        Some
          {
            e_exn = Some "Match_failure";
            e_hops = [ ("partial match", e.pexp_loc) ];
          }
      | _ -> first (immediate_children e)
  and first = function
    | [] -> None
    | e :: rest -> ( match search e with Some ev -> Some ev | None -> first rest)
  in
  search expr
