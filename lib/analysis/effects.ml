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

type evidence = {
  e_exn : string option;
  e_hops : (string * Location.t) list;
}

(* Evidence while the walk is under way.  A node reference keeps only
   its name: the query builds that node's witness chain once, for the
   evidence it finally reports. *)
type hint = Site of evidence | Node of string * Location.t

let site exn name loc = Some (Site { e_exn = exn; e_hops = [ (name, loc) ] })
let first a b = match a with Some _ -> a | None -> b
let first_of hints = List.fold_left first None hints

(* A reference names a node only when the node may raise. *)
let node_hint env name loc =
  if is_pure (summary env name) then None else Some (Node (name, loc))

type eval_ctx = {
  env : env;
  file : string;
  bound : SSet.t;  (* names bound anywhere inside the enclosing binding *)
  deep : bool;  (* contribute callee-node fixpoint summaries *)
  record : (string -> Location.t -> unit) option;
  masked : Parsetree.expression -> bool;
  read : string -> unit;  (* told of every callee summary consulted *)
}

let record ctx exn loc =
  match ctx.record with Some f -> f exn loc | None -> ()

let callee ctx name loc =
  ctx.read name;
  (summary ctx.env name, node_hint ctx.env name loc)

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

let partial_match ctx (e : Parsetree.expression) cases =
  if partial_constant_match cases then begin
    record ctx "Match_failure" e.pexp_loc;
    ( known_one "Match_failure",
      site (Some "Match_failure") "partial match" e.pexp_loc )
  end
  else (pure, None)

(* A bare reference to a raising node counts (passing it to List.map
   is reachability, matching the callgraph's edge semantics); a bare
   reference to anything else contributes nothing. *)
let ident_effect ctx txt loc =
  match Callgraph.resolve ctx.env.graph ~file:ctx.file txt with
  | Some name
    when ctx.deep
         && Callgraph.has_def ctx.env.graph name
         && not (Callgraph.node_sanctioned ctx.env.graph name) ->
    callee ctx name loc
  | _ -> (pure, None)

(* One walk yields an expression's summary and its evidence: the first
   raising thing in reading order.  A [raise]/[failwith]/[invalid_arg]
   head is read before its arguments, any other call's arguments before
   its head, a [try] body before its handlers (and a [try] that ends
   pure yields nothing), a partial constant match's scrutinee before
   the match.  Evidence is indicative, not exact: an impure [try] body
   is read without replaying the narrowing, so the named hop may be a
   handled one — the summary, not the evidence, decides whether to
   report. *)
let rec eval ctx (e : Parsetree.expression) : t * hint option =
  if ctx.masked e then (pure, None)
  else
    match e.pexp_desc with
    | Pexp_ident { txt; loc } -> ident_effect ctx txt loc
    | Pexp_apply (head, args) ->
      let eff, arg_hints, head_hint, head_first = apply_effect ctx head args in
      ( eff,
        if head_first then head_hint else first (first_of arg_hints) head_hint )
    | Pexp_try (body, cases) ->
      let body_eff, body_hint = eval ctx body in
      let handlers, handlers_hint = cases_effect ctx ~guard_hints:false cases in
      let eff = union (narrow body_eff cases) handlers in
      (eff, if is_pure eff then None else first body_hint handlers_hint)
    | Pexp_letexception (ext, body) -> (
      (* [let exception E in body]: E is scoped — no caller can write
         a handler for it, so it is dropped from the escaping summary
         (in this codebase such exceptions are always caught inside
         the scope; the charge-at-definition model would otherwise
         keep them even past their local handler) *)
      match eval ctx body with
      | Top, hint -> (Top, hint)
      | Known s, hint -> (Known (SSet.remove ext.pext_name.txt s), hint))
    | Pexp_match (scrut, cases) ->
      let scrut_eff, scrut_hint = eval ctx scrut in
      let scrut_eff = narrow scrut_eff (List.filter is_exception_case cases) in
      let partial, partial_hint = partial_match ctx e cases in
      let cases_eff, cases_hint = cases_effect ctx ~guard_hints:true cases in
      ( union (union scrut_eff partial) cases_eff,
        first scrut_hint (first partial_hint cases_hint) )
    | Pexp_function cases ->
      let partial, partial_hint = partial_match ctx e cases in
      let cases_eff, cases_hint = cases_effect ctx ~guard_hints:true cases in
      (union partial cases_eff, first partial_hint cases_hint)
    | _ ->
      List.fold_left
        (fun (acc, hint) c ->
          let eff, h = eval ctx c in
          (union acc eff, first hint h))
        (pure, None) (immediate_children e)

(* [~guard_hints:false] is a [try]'s reading: its handler guards are
   not searched for evidence. *)
and cases_effect ctx ~guard_hints cases =
  List.fold_left
    (fun (acc, hint) (c : Parsetree.case) ->
      let acc, hint =
        match c.pc_guard with
        | Some g ->
          let eff, h = eval ctx g in
          (union acc eff, if guard_hints then first hint h else hint)
        | None -> (acc, hint)
      in
      let eff, h = eval ctx c.pc_rhs in
      (union acc eff, first hint h))
    (pure, None) cases

(* [head args]: the summary, one hint per argument as written, the
   head's hint and whether it is read before the arguments.  The
   summary re-associates pipes so [x |> f] and [f @@ x] apply [f]; the
   hints read a pipe as written — its operands, then the operator. *)
and apply_effect ctx (head : Parsetree.expression) args =
  match (head.pexp_desc, args) with
  | ( Pexp_ident { txt = Longident.Lident (("|>" | "@@") as op); _ },
      [ (_, a); (_, b) ] ) ->
    let x, f = if op = "|>" then (a, b) else (b, a) in
    let eff, x_hint, f_hint =
      match f.pexp_desc with
      | Pexp_apply (inner_head, inner_args) ->
        let eff, hints, head_hint, head_first =
          apply_effect ctx inner_head (inner_args @ [ (Asttypes.Nolabel, x) ])
        in
        let x_hint, inner_hints =
          match List.rev hints with
          | x_hint :: rev_inner -> (x_hint, List.rev rev_inner)
          | [] -> (None, [])
        in
        let f_hint =
          if ctx.masked f then None
          else if head_first then head_hint
          else first (first_of inner_hints) head_hint
        in
        (eff, x_hint, f_hint)
      | _ ->
        let eff, hints, head_hint, _ =
          apply_effect ctx f [ (Asttypes.Nolabel, x) ]
        in
        let f_hint =
          match f.pexp_desc with
          | Pexp_ident _ -> snd (eval ctx f)
          | _ -> head_hint
        in
        (eff, first_of hints, f_hint)
    in
    let _, op_hint, _ = head_effect ctx head args in
    ( eff,
      (if op = "|>" then [ x_hint; f_hint ] else [ f_hint; x_hint ]),
      op_hint,
      false )
  | _ ->
    let results = List.map (fun (_, a) -> eval ctx a) args in
    let head_eff, head_hint, head_first = head_effect ctx head args in
    ( List.fold_left (fun acc (eff, _) -> union acc eff) head_eff results,
      List.map snd results,
      head_hint,
      head_first )

(* The head of [head args]: its summary, its hint, and whether that hint
   is read before the arguments — a [raise]/[failwith]/[invalid_arg]
   introduces its exception (a computed exception value is [Top]). *)
and head_effect ctx (head : Parsetree.expression) args =
  let introduce name loc exn =
    Option.iter (fun exn -> record ctx exn loc) exn;
    (Option.fold ~none:Top ~some:known_one exn, site exn name loc, true)
  in
  match head.pexp_desc with
  | Pexp_ident { txt = Longident.Lident ("raise" | "raise_notrace"); loc } ->
    introduce "raise" loc
      (match args with
      | (_, { pexp_desc = Pexp_construct ({ txt = c; _ }, _); _ }) :: _ ->
        Callgraph.last_segment c
      | _ -> None)
  | Pexp_ident { txt = Longident.Lident "failwith"; loc } ->
    introduce "failwith" loc (Some "Failure")
  | Pexp_ident { txt = Longident.Lident "invalid_arg"; loc } ->
    introduce "invalid_arg" loc (Some "Invalid_argument")
  | Pexp_ident { txt; loc } -> (
    let graph = ctx.env.graph in
    match Callgraph.resolve graph ~file:ctx.file txt with
    | None -> (Top, None, false)
    | Some name -> (
      match Hashtbl.find_opt raising_tbl name with
      | Some exns ->
        List.iter (fun exn -> record ctx exn loc) exns;
        ( Known (SSet.of_list exns),
          (match exns with exn :: _ -> site (Some exn) name loc | [] -> None),
          false )
      | None ->
        if is_pure_name name then (pure, None, false)
        else if SSet.mem name ctx.bound then
          (* local closure or parameter: charged elsewhere *)
          (pure, None, false)
        else if Callgraph.has_def graph name then
          if Callgraph.node_sanctioned graph name || not ctx.deep then
            (pure, None, false)
          else
            let eff, hint = callee ctx name loc in
            (eff, hint, false)
        else
          (* unknown external in call position *)
          (Top, site None name loc, false)))
  | Pexp_field (record_expr, _) ->
    (* [obj.f x]: a callback stored in a record field.  Like a
       bound parameter, the closure's body was charged where the
       closure was built (eval descends through [Pexp_fun]), so
       the application itself contributes nothing beyond
       evaluating the record expression. *)
    let eff, hint = eval ctx record_expr in
    (eff, (if ctx.masked head then None else hint), false)
  | _ ->
    let eff, hint = eval ctx head in
    (union eff Top (* applying a computed function *), hint, false)

(* ------------------------------------------------------------------ *)
(* fixpoint                                                            *)
(* ------------------------------------------------------------------ *)

let make_ctx ?record ?(mask = fun _ -> false) ?(bound = SSet.empty)
    ?(read = ignore) env ~file ~deep expr =
  {
    env;
    file;
    bound = SSet.union bound (Callgraph.bound_names expr);
    deep;
    record;
    masked = mask;
    read;
  }

let node_effect ?read env ~deep id =
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
        make_ctx ?record ?read env ~file:d.Callgraph.d_file ~deep d.Callgraph.d_expr
      in
      union acc (fst (eval ctx d.Callgraph.d_expr)))
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
  (* Worklist fixpoint: every node is evaluated once, then again only
     when a summary its last walk consulted has grown.  [eval] is
     monotone in the summary table, so this reaches the least fixpoint
     that repeated rounds over every node reach.  The walks record
     their own readers: [Callgraph.edges] can list a callee under a
     name that resolves to a node only once later files are
     declared. *)
  let readers : (string, SSet.t) Hashtbl.t = Hashtbl.create 256 in
  let readers_of id = Option.value ~default:SSet.empty (Hashtbl.find_opt readers id) in
  let rec drain pending =
    match SSet.min_elt_opt pending with
    | None -> ()
    | Some id ->
      let read name = Hashtbl.replace readers name (SSet.add id (readers_of name)) in
      let cur = summary env id in
      let next = union cur (node_effect ~read env ~deep:true id) in
      let pending = SSet.remove id pending in
      if equal cur next then drain pending
      else begin
        Hashtbl.replace env.summaries id next;
        drain (SSet.union pending (readers_of id))
      end
  in
  drain (SSet.of_list ids);
  (* direct (intraprocedural) seeds + raise sites, for witnesses *)
  List.iter
    (fun id ->
      Hashtbl.replace env.locals id (node_effect env ~deep:false id))
    ids;
  env

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

(* ------------------------------------------------------------------ *)
(* public expression query                                             *)
(* ------------------------------------------------------------------ *)

let evidence_of_hint env = function
  | Site ev -> Some ev
  | Node (name, loc) -> (
    match summary env name with
    | Top -> Some { e_exn = None; e_hops = [ (name, loc) ] }
    | Known s ->
      Option.map
        (fun exn ->
          { e_exn = Some exn; e_hops = (name, loc) :: witness env name ~exn })
        (SSet.min_elt_opt s))

let expr_effect ?mask ?bound env ~file expr =
  let eff, hint = eval (make_ctx ?mask ?bound env ~file ~deep:true expr) expr in
  (eff, Option.bind hint (evidence_of_hint env))
