(* Interprocedural parallel-safety pass (rules P001-P004).

   A *parallel region* is a function handed to an [Es_par] combinator
   ([Par.parallel_map], [Par.parallel_iteri], [Par.map_reduce],
   [Par.try_map], [Par.map_seeded]) or to the raw pool
   ([Pool.submit], [Pool.submit_batch]) — plus every call through a
   *derived combinator*: a top-level binding that forwards one of its
   own parameters into a region position (the [pmap] wrappers in
   bin/experiments.ml), computed as a fixpoint over the call graph.

   For each region the pass checks the closure body and everything
   transitively reachable from it through the {!Callgraph}:

   - P001: writes to mutable state defined outside the region —
     [x := e] / [incr] / [decr] on a captured ref, [e.f <- v] on a
     captured record, Hashtbl/Queue/Stack/Buffer mutators on a
     captured container — unless syntactically under [Mutex.protect].
     Array/Bytes element writes are exempt: disjoint-slot writes are
     the sanctioned [parallel_iteri] pattern (par.mli).
   - P002: ambient nondeterminism — [Random.*] (the sanctioned
     randomness is a pre-split [Rng] stream), wall clocks,
     [Domain.self] as data, Gc statistics, and hash-ordered iteration
     ([Hashtbl.iter]/[fold]/[to_seq]) over a *captured* table.
   - P003: blocking operations — [Mutex.lock]/[protect] on a captured
     lock, [Condition.wait], [Unix.sleep*], and raw [Pool.submit]
     re-entry, which the combinators' inline-nesting rule cannot
     prove safe.
   - P004 (not region-based): any [Domain.*] / [Domain.DLS] use in a
     file outside the two sanctioned owners, lib/par and lib/obs.

   lib/par and lib/obs are *sanctioned*: reachability stops at nodes
   defined only there (the pool is the audited owner of blocking
   joins, and Obs counters are atomic by construction — par.mli's
   contract), so [Obs.incr] inside a region stays silent while a raw
   [Mutex.lock] does not.

   Soundness caveats (DESIGN.md §9): the pass over-approximates
   reachability (mentioning a value reaches it) but cannot see
   higher-order flow through data structures, mutation of values
   reached via function *arguments* (a helper mutating its parameter),
   or region arguments that are locally-let-bound closures; externals
   not on a deny-list are assumed effect-free. *)

module SSet = Callgraph.SSet

(* ------------------------------------------------------------------ *)
(* name tables                                                         *)
(* ------------------------------------------------------------------ *)

(* Matched against the last two dot-segments of a resolved path, so
   [Es_par.Par.parallel_map], [Par.parallel_map] and an aliased
   [P.parallel_map] all hit. *)
let base_combinators =
  [
    "Par.parallel_map"; "Par.parallel_iteri"; "Par.map_reduce"; "Par.try_map";
    "Par.map_seeded"; "Pool.submit"; "Pool.submit_batch";
  ]

let ambient_prefixes = [ "Random." ]

let ambient_exact =
  [
    "Sys.time"; "Unix.gettimeofday"; "Unix.time"; "Domain.self"; "Gc.stat";
    "Gc.quick_stat"; "Gc.counters"; "Gc.minor_words"; "Gc.major_slice";
    "Gc.allocated_bytes";
  ]

let blocking_always =
  [ "Unix.sleep"; "Unix.sleepf"; "Thread.delay"; "Condition.wait" ]

let pool_reentry = [ "Pool.submit"; "Pool.submit_batch" ]
let lock_takers = [ "Mutex.lock"; "Mutex.try_lock"; "Mutex.protect" ]

let container_writes =
  [
    "Hashtbl.replace"; "Hashtbl.add"; "Hashtbl.remove"; "Hashtbl.reset";
    "Hashtbl.clear"; "Hashtbl.filter_map_inplace"; "Queue.add"; "Queue.push";
    "Queue.pop"; "Queue.take"; "Queue.clear"; "Queue.transfer"; "Stack.push";
    "Stack.pop"; "Stack.clear"; "Buffer.add_string"; "Buffer.add_char";
    "Buffer.add_bytes"; "Buffer.add_substring"; "Buffer.add_subbytes";
    "Buffer.clear"; "Buffer.reset"; "Buffer.truncate";
  ]

(* table argument position: [iter f h] / [fold f h init] take the
   table second, [to_seq h] first *)
let hash_iteration = [ ("Hashtbl.iter", 1); ("Hashtbl.fold", 1); ("Hashtbl.to_seq", 0) ]

let is_base_combinator name =
  List.mem (Callgraph.last_two_segments name) base_combinators

(* ------------------------------------------------------------------ *)
(* facts                                                               *)
(* ------------------------------------------------------------------ *)

type fact = {
  f_rule : Rules.t;
  f_what : string;  (* human description of the offence *)
  f_op : string;  (* short op name, the terminal witness hop *)
  f_loc : Location.t;
}

(* The state a write targets, reduced to its leftmost identifier:
   [Some name] when that identifier lives outside [bound] (a captured
   or module-level value), [None] when it is region-local or too
   complex to track. *)
let rec free_target ~bound (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_ident { txt = Longident.Lident x; _ } ->
    if SSet.mem x bound then None else Some x
  | Pexp_ident { txt; _ } -> (
    (* dotted path: module-level state elsewhere, free by definition *)
    match Callgraph.flatten_longident txt with
    | Some segs -> Some (String.concat "." segs)
    | None -> None)
  | Pexp_field (obj, _) -> free_target ~bound obj
  | Pexp_constraint (inner, _) -> free_target ~bound inner
  | _ -> None

let positional_at args k =
  let positional =
    List.filter_map
      (fun ((label : Asttypes.arg_label), e) ->
        match label with Nolabel -> Some e | _ -> None)
      args
  in
  List.nth_opt positional k

(* Scan one expression for local facts and outgoing references.
   [resolve] canonicalises identifier paths as seen from the file the
   expression lives in.  Writes to names the expression does not bind
   touch state defined outside the scanned code (shadowing an outer
   name hides writes to it — an accepted false negative). *)
let scan ~resolve expr =
  let bound = Callgraph.bound_names expr in
  let facts = ref [] in
  let callees = ref [] in
  let seen_callees = Hashtbl.create 32 in
  let protect_ranges = ref [] in
  let add_fact f_rule f_what f_op f_loc =
    facts := { f_rule; f_what; f_op; f_loc } :: !facts
  in
  let check_name name loc =
    if List.exists (fun p -> String.starts_with ~prefix:p name) ambient_prefixes then
      add_fact Rules.P002
        (Printf.sprintf "%s (use a pre-split Rng stream / map_seeded)" name)
        name loc
    else if List.mem name ambient_exact then
      add_fact Rules.P002 name name loc
    else if List.mem name blocking_always then
      add_fact Rules.P003 name name loc
    else if List.mem (Callgraph.last_two_segments name) pool_reentry then
      add_fact Rules.P003
        (Printf.sprintf "%s re-enters the pool from worker code" name)
        name loc
  in
  let open Ast_iterator in
  let expr_iter iter (e : Parsetree.expression) =
    (match e.pexp_desc with
    | Pexp_ident { txt; loc } -> (
      match resolve txt with
      | None -> ()
      | Some name ->
        check_name name loc;
        if not (Hashtbl.mem seen_callees name) then begin
          Hashtbl.replace seen_callees name ();
          callees := (name, loc) :: !callees
        end)
    | Pexp_apply ({ pexp_desc = Pexp_ident { txt; loc }; _ }, args) -> (
      match resolve txt with
      | None -> ()
      | Some head -> (
        let tail2 = Callgraph.last_two_segments head in
        let first_target =
          Option.bind (Callgraph.first_positional args) (free_target ~bound)
        in
        (match head with
        | ":=" -> (
          match first_target with
          | Some target ->
            add_fact Rules.P001
              (Printf.sprintf "':=' on captured ref '%s'" target)
              (":= " ^ target) loc
          | None -> ())
        | "incr" | "decr" -> (
          match first_target with
          | Some target ->
            add_fact Rules.P001
              (Printf.sprintf "'%s' on captured ref '%s'" head target)
              (head ^ " " ^ target) loc
          | None -> ())
        | _ -> ());
        if List.mem tail2 container_writes then (
          match first_target with
          | Some target ->
            add_fact Rules.P001
              (Printf.sprintf "%s on captured container '%s'" tail2 target)
              (tail2 ^ " " ^ target) loc
          | None -> ());
        (match List.assoc_opt tail2 hash_iteration with
        | Some table_pos -> (
          match Option.bind (positional_at args table_pos) (free_target ~bound) with
          | Some target ->
            add_fact Rules.P002
              (Printf.sprintf
                 "%s over captured table '%s' (hash-ordered iteration)" tail2
                 target)
              (tail2 ^ " " ^ target) loc
          | None -> ())
        | None -> ());
        if List.mem tail2 lock_takers then begin
          (match first_target with
          | Some target ->
            add_fact Rules.P003
              (Printf.sprintf "%s on captured lock '%s'" tail2 target)
              (tail2 ^ " " ^ target) loc
          | None -> ());
          (* writes under Mutex.protect are protected, not racy *)
          if tail2 = "Mutex.protect" then
            protect_ranges :=
              (e.pexp_loc.loc_start.pos_cnum, e.pexp_loc.loc_end.pos_cnum)
              :: !protect_ranges
        end))
    | Pexp_setfield (obj, field, _) -> (
      match free_target ~bound obj with
      | Some target ->
        let field_name =
          match Callgraph.flatten_longident field.txt with
          | Some segs -> String.concat "." segs
          | None -> "?"
        in
        add_fact Rules.P001
          (Printf.sprintf "mutable-field write '%s.%s <-' on captured state"
             target field_name)
          (Printf.sprintf "%s.%s <-" target field_name)
          e.pexp_loc
      | None -> ())
    | _ -> ());
    default_iterator.expr iter e
  in
  let iter = { default_iterator with expr = expr_iter } in
  iter.expr iter expr;
  let inside_protect (f : fact) =
    f.f_rule = Rules.P001
    && List.exists
         (fun (lo, hi) ->
           let c = f.f_loc.loc_start.pos_cnum in
           lo <= c && c <= hi)
         !protect_ranges
  in
  (List.rev (List.filter (fun f -> not (inside_protect f)) !facts),
   List.rev !callees)

(* ------------------------------------------------------------------ *)
(* derived combinators (region-forming wrappers)                       *)
(* ------------------------------------------------------------------ *)

(* Does [expr] apply a region-forming callee with one of [params] in
   argument position?  If so the enclosing binding is itself
   region-forming: its callers' closures run on the pool. *)
let forwards_param_to_region ~resolve ~params ~is_former expr =
  let found = ref false in
  let open Ast_iterator in
  let expr_iter iter (e : Parsetree.expression) =
    (match e.pexp_desc with
    | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args) -> (
      match resolve txt with
      | Some head when is_base_combinator head || is_former head ->
        if
          List.exists
            (fun (_, (a : Parsetree.expression)) ->
              match a.pexp_desc with
              | Pexp_ident { txt = Longident.Lident x; _ } ->
                List.mem x params
              | _ -> false)
            args
        then found := true
      | _ -> ())
    | _ -> ());
    default_iterator.expr iter e
  in
  let iter = { default_iterator with expr = expr_iter } in
  iter.expr iter expr;
  !found

let region_formers graph =
  let formers : (string, unit) Hashtbl.t = Hashtbl.create 16 in
  let changed = ref true in
  let node_list = Callgraph.nodes graph in
  while !changed do
    changed := false;
    List.iter
      (fun id ->
        if not (Hashtbl.mem formers id) then
          let forms =
            List.exists
              (fun (d : Callgraph.def) ->
                (not (Callgraph.in_lib Callgraph.sanctioned d.d_file))
                && forwards_param_to_region
                     ~resolve:(Callgraph.resolve graph ~file:d.d_file)
                     ~params:d.d_params
                     ~is_former:(Hashtbl.mem formers)
                     d.d_expr)
              (Callgraph.defs graph id)
          in
          if forms then begin
            Hashtbl.replace formers id ();
            changed := true
          end)
      node_list
  done;
  formers

(* ------------------------------------------------------------------ *)
(* context (one per eslint run)                                        *)
(* ------------------------------------------------------------------ *)

type ctx = {
  graph : Callgraph.t;
  formers : (string, unit) Hashtbl.t;
  facts_memo : (string, fact list * (string * Location.t) list) Hashtbl.t;
}

let make_ctx graph = { graph; formers = region_formers graph; facts_memo = Hashtbl.create 64 }

(* The facts of a node and the callees to walk on to, both from its
   definitions outside the sanctioned owners: a module name defined in
   lib/obs and elsewhere is neither scanned nor walked out of through
   its lib/obs body. *)
let node_facts ctx id =
  match Hashtbl.find_opt ctx.facts_memo id with
  | Some r -> r
  | None ->
    let scans =
      List.filter_map
        (fun (d : Callgraph.def) ->
          if Callgraph.in_lib Callgraph.sanctioned d.d_file then None
          else Some (scan ~resolve:(Callgraph.resolve ctx.graph ~file:d.d_file) d.d_expr))
        (Callgraph.defs ctx.graph id)
    in
    let r = (List.concat_map fst scans, List.concat_map snd scans) in
    Hashtbl.replace ctx.facts_memo id r;
    r

(* ------------------------------------------------------------------ *)
(* reporting                                                           *)
(* ------------------------------------------------------------------ *)

let rule_phrase = function
  | Rules.P001 ->
    "writes captured mutable state without Atomic/Mutex protection"
  | Rules.P002 -> "reaches ambient nondeterminism"
  | Rules.P003 -> "reaches a blocking operation"
  | _ -> "violates the parallel-safety contract"

let report_fact ~report ~combinator ~region_loc ~path ~seen (f : fact) =
  let witness =
    String.concat " -> "
      ((Printf.sprintf "region@%s" (Callgraph.loc_tag region_loc)
       :: List.map Callgraph.hop path)
      @ [ Callgraph.hop (f.f_op, f.f_loc) ])
  in
  let key =
    Printf.sprintf "%s|%s|%s" (Rules.id f.f_rule) f.f_what
      (Callgraph.loc_tag f.f_loc)
  in
  if not (Hashtbl.mem seen key) then begin
    Hashtbl.replace seen key ();
    report f.f_rule region_loc
      (Printf.sprintf "parallel region (%s) %s: %s; witness: %s" combinator
         (rule_phrase f.f_rule) f.f_what witness)
  end

(* ------------------------------------------------------------------ *)
(* region analysis                                                     *)
(* ------------------------------------------------------------------ *)

let analyse_reachable ctx ~report ~combinator ~region_loc ~seen ~visited roots =
  let rec visit (name, loc) path =
    if Callgraph.has_def ctx.graph name && not (SSet.mem name !visited) then begin
      visited := SSet.add name !visited;
      if not (Callgraph.node_sanctioned ctx.graph name) then begin
        let path = path @ [ (name, loc) ] in
        let facts, callees = node_facts ctx name in
        List.iter (report_fact ~report ~combinator ~region_loc ~path ~seen) facts;
        List.iter (fun callee -> visit callee path) callees
      end
    end
  in
  List.iter (fun root -> visit root []) roots

let analyse_region ctx ~file ~report ~combinator ~region_loc args =
  let seen = Hashtbl.create 8 in
  let visited = ref SSet.empty in
  List.iter
    (fun (_, arg) ->
      let arg = Callgraph.peel arg in
      match arg.pexp_desc with
      | Pexp_fun _ | Pexp_function _ ->
        let facts, callees =
          scan ~resolve:(Callgraph.resolve ctx.graph ~file) arg
        in
        List.iter
          (report_fact ~report ~combinator ~region_loc ~path:[] ~seen)
          facts;
        analyse_reachable ctx ~report ~combinator ~region_loc ~seen ~visited
          callees
      | Pexp_ident { txt; loc } -> (
        match Callgraph.resolve ctx.graph ~file txt with
        | None -> ()
        | Some name ->
          (* a deny-listed function passed as the region itself *)
          let facts, _ =
            scan
              ~resolve:(Callgraph.resolve ctx.graph ~file)
              { arg with pexp_desc = Pexp_ident { txt; loc } }
          in
          List.iter
            (report_fact ~report ~combinator ~region_loc ~path:[] ~seen)
            facts;
          analyse_reachable ctx ~report ~combinator ~region_loc ~seen ~visited
            [ (name, loc) ])
      | _ -> ())
    args

(* ------------------------------------------------------------------ *)
(* entry point                                                         *)
(* ------------------------------------------------------------------ *)

let check_structure ctx ~file ~report str =
  if not (Callgraph.in_lib Callgraph.sanctioned file) then begin
    let resolve = Callgraph.resolve ctx.graph ~file in
    let open Ast_iterator in
    let expr_iter iter (e : Parsetree.expression) =
      (match e.pexp_desc with
      | Pexp_ident { txt; loc } -> (
        match resolve txt with
        | Some name when String.starts_with ~prefix:"Domain." name ->
          report Rules.P004 loc
            (Printf.sprintf
               "%s used outside the sanctioned owners (lib/par, lib/obs); \
                route domain management through Es_par.Pool or justify with \
                [@lint.allow \"P004\"]"
               name)
        | _ -> ())
      | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args) -> (
        match resolve txt with
        | Some head
          when is_base_combinator head || Hashtbl.mem ctx.formers head ->
          analyse_region ctx ~file ~report
            ~combinator:(Callgraph.last_two_segments head)
            ~region_loc:e.pexp_loc args
        | _ -> ())
      | _ -> ());
      default_iterator.expr iter e
    in
    let iter = { default_iterator with expr = expr_iter } in
    iter.structure iter str
  end
