(* Exception-flow / resource-lifecycle checks (X001, R001-R003)
   — layer 2 over the {!Effects} summaries.  See resource_rules.mli
   for the rule semantics and caveats.

   The leak model is deliberately syntactic and per-binding:

   - [let x = <acquire> in body] opens a protocol obligation on [x];
     release sites are applications of the matching close on [x], and
     a release inside a [Fun.protect ~finally] argument is protected;
   - [Mutex.lock m] / [Obs.enable ()] open sequence-scoped
     obligations: the rest of the enclosing statement sequence must
     contain the matching unlock/disable (or a [Fun.protect] whose
     [~finally] performs it);
   - when the release exists but is unprotected, everything before the
     first unprotected release is summarised with {!Effects}; if it
     may raise, the exceptional path leaks (R002/R003). *)

module SSet = Effects.SSet

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* ------------------------------------------------------------------ *)
(* acquire / release forms                                             *)
(* ------------------------------------------------------------------ *)

type resource = {
  r_word : string;  (* human name of the resource *)
  r_fix : string;  (* suggested structural fix *)
}

(* let-bound acquires: resolved head name -> resource *)
let acquire_of head =
  match head with
  | "open_in" | "open_in_bin" | "open_in_gen" ->
    Some { r_word = "input channel"; r_fix = "Fun.protect ~finally:close_in" }
  | "open_out" | "open_out_bin" | "open_out_gen" ->
    Some
      { r_word = "output channel"; r_fix = "Fun.protect ~finally:close_out" }
  | _ -> (
    match Callgraph.last_two_segments head with
    | "Unix.openfile" ->
      Some
        {
          r_word = "file descriptor";
          r_fix = "Fun.protect ~finally:Unix.close";
        }
    | "Pool.create" ->
      Some { r_word = "worker pool"; r_fix = "Pool.with_pool" }
    | _ -> None)

(* does the resolved name release the handle class of [head]? *)
let releases ~acquire_head name =
  match acquire_head with
  | "open_in" | "open_in_bin" | "open_in_gen" ->
    name = "close_in" || name = "close_in_noerr"
    || Callgraph.last_two_segments name = "In_channel.close"
  | "open_out" | "open_out_bin" | "open_out_gen" ->
    name = "close_out" || name = "close_out_noerr"
    || Callgraph.last_two_segments name = "Out_channel.close"
  | _ -> (
    match Callgraph.last_two_segments acquire_head with
    | "Unix.openfile" -> Callgraph.last_two_segments name = "Unix.close"
    | "Pool.create" -> Callgraph.last_two_segments name = "Pool.shutdown"
    | _ -> false)

(* ------------------------------------------------------------------ *)
(* syntactic searches                                                  *)
(* ------------------------------------------------------------------ *)

(* every [Pexp_apply] with a resolvable identifier head *)
let iter_applies ~resolve expr f =
  let open Ast_iterator in
  let expr_iter iter (e : Parsetree.expression) =
    (match e.pexp_desc with
    | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args) -> (
      match resolve txt with
      | Some head -> f ~head ~args ~loc:e.pexp_loc
      | None -> ())
    | _ -> ());
    default_iterator.expr iter e
  in
  let iter = { default_iterator with expr = expr_iter } in
  iter.expr iter expr

(* character ranges of every [~finally] argument of a [Fun.protect]
   application under [expr] — releases inside them are protected *)
let finally_ranges ~resolve expr =
  let ranges = ref [] in
  iter_applies ~resolve expr (fun ~head ~args ~loc:_ ->
      if Callgraph.last_two_segments head = "Fun.protect" then
        List.iter
          (fun ((label : Asttypes.arg_label), (a : Parsetree.expression)) ->
            match label with
            | Labelled "finally" ->
              ranges :=
                (a.pexp_loc.loc_start.pos_cnum, a.pexp_loc.loc_end.pos_cnum)
                :: !ranges
            | _ -> ())
          args);
  !ranges

let in_ranges ranges (loc : Location.t) =
  let c = loc.loc_start.pos_cnum in
  List.exists (fun (lo, hi) -> lo <= c && c <= hi) ranges

(* argument is the bare identifier [x] *)
let arg_is args x =
  match Callgraph.first_positional args with
  | Some
      ({ pexp_desc = Pexp_ident { txt = Longident.Lident y; _ }; _ } :
        Parsetree.expression) ->
    y = x
  | _ -> false

(* leftmost identifier of the first positional argument, for naming
   the lock in messages and matching its unlock *)
let arg_name args =
  match Option.map Callgraph.peel (Callgraph.first_positional args) with
  | Some ({ pexp_desc = Pexp_ident { txt; _ }; _ } : Parsetree.expression) -> (
    match Callgraph.flatten_longident txt with
    | Some segs -> Some (String.concat "." segs)
    | None -> None)
  | _ -> None

let rec sequence_chain (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_sequence (a, b) -> a :: sequence_chain b
  | _ -> [ e ]

(* mask for an {!Effects.expr_effect} stretch: every subtree starting
   at or after [cutoff] (a release) is out of scope *)
let from_cutoff cutoff (e : Parsetree.expression) =
  let c = e.pexp_loc.loc_start.pos_cnum in
  c >= 0 && c >= cutoff

(* ------------------------------------------------------------------ *)
(* rendering                                                           *)
(* ------------------------------------------------------------------ *)

let raise_phrase eff_sum =
  match Effects.to_list eff_sum with
  | Some exns -> "may raise " ^ String.concat ", " exns
  | None -> "may raise (an unknown external is reached in call position)"

let evidence_suffix = function
  | Some (ev : Effects.evidence) when ev.e_hops <> [] ->
    "; witness: " ^ String.concat " -> " (List.map Callgraph.hop ev.e_hops)
  | _ -> ""

(* ------------------------------------------------------------------ *)
(* R001/R002: let-bound handles                                        *)
(* ------------------------------------------------------------------ *)

let check_handle ~eff ~file ~bound ~report ~x ~acquire_head ~resource
    ~acq_loc body =
  let graph = Effects.graph eff in
  let resolve = Callgraph.resolve graph ~file in
  let release_sites = ref [] in
  iter_applies ~resolve body (fun ~head ~args ~loc ->
      if releases ~acquire_head head && arg_is args x then
        release_sites := loc :: !release_sites);
  match !release_sites with
  | [] ->
    report Rules.R001 acq_loc
      (Printf.sprintf
         "%s '%s' acquired here is never released in this binding; release \
          it on every path with %s (or justify ownership transfer with \
          [@lint.allow \"R001\"])"
         resource.r_word x resource.r_fix)
  | sites ->
    let protected = finally_ranges ~resolve body in
    let unprotected =
      List.filter (fun l -> not (in_ranges protected l)) sites
    in
    (match unprotected with
    | [] -> ()
    | _ ->
      let cutoff =
        List.fold_left
          (fun acc (l : Location.t) -> min acc l.loc_start.pos_cnum)
          max_int unprotected
      in
      (* everything from the first unprotected release on is out of
         scope: only the stretch between acquire and release decides
         whether the exceptional path can skip the close *)
      let between, ev =
        Effects.expr_effect ~mask:(from_cutoff cutoff) ~bound eff ~file body
      in
      if not (Effects.is_pure between) then
        report Rules.R002 acq_loc
          (Printf.sprintf
             "%s '%s' is released, but the code between acquire and release \
              %s and the release is not protected — the exceptional path \
              leaks it%s; wrap the body in %s"
             resource.r_word x (raise_phrase between) (evidence_suffix ev)
             resource.r_fix))

(* ------------------------------------------------------------------ *)
(* sequence protocols: Mutex.lock/unlock and Obs.enable/disable        *)
(* ------------------------------------------------------------------ *)

(* A protocol opened by an acquire call must be closed by a release
   later in the same statement sequence (or in the acquiring statement
   itself).  One row per protocol: the acquire and release heads, the
   rules for a missing and for an unprotected release, and the message
   text. *)
type protocol = {
  acquire : string;
  release : string;
  targeted : bool;  (* the release names the acquired lock *)
  release_word : string;  (* the release, as messages name it *)
  missing : Rules.t;
  never_released : string;  (* message tail after the acquire *)
  unprotected : Rules.t;
  fix : string;
}

let protocols =
  [
    {
      acquire = "Mutex.lock";
      release = "Mutex.unlock";
      targeted = true;
      release_word = "unlock";
      missing = Rules.R001;
      never_released =
        "has no matching unlock in the rest of this statement sequence; \
         the raising (or early-return) path leaves it held — use \
         Mutex.protect";
      unprotected = Rules.R002;
      fix = "use Mutex.protect so the unlock runs on the raising path";
    };
    {
      acquire = "Obs.enable";
      release = "Obs.disable";
      targeted = false;
      release_word = "Obs.disable";
      missing = Rules.R003;
      never_released =
        "is never balanced by Obs.disable in the rest of this statement \
         sequence; the telemetry toggle leaks across the next caller — put \
         the disable in a Fun.protect ~finally";
      unprotected = Rules.R003;
      fix =
        "move the disable into a Fun.protect ~finally so the raising path \
         restores the toggle";
    };
  ]

(* first application under [stmt] satisfying [pred] *)
let find_apply ~resolve stmt pred =
  let found = ref None in
  iter_applies ~resolve stmt (fun ~head ~args ~loc ->
      if !found = None && pred ~head ~args ~loc then found := Some (loc, args));
  !found

let check_chain ~eff ~file ~bound ~report ~seen stmts =
  let graph = Effects.graph eff in
  let resolve = Callgraph.resolve graph ~file in
  let once rule loc msg =
    let key = Printf.sprintf "%s|%s" (Rules.id rule) (Callgraph.loc_tag loc) in
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.replace seen key ();
      report rule loc msg
    end
  in
  (* split [rest] at the first stmt containing an (unmasked) release;
     returns the in-between stmts, the releasing stmt with the release
     location, and whether the release sits inside a [Fun.protect
     ~finally] *)
  let find_release rest is_release =
    let rec go acc = function
      | [] -> None
      | stmt :: tl -> (
        match
          find_apply ~resolve stmt (fun ~head ~args ~loc:_ ->
              is_release ~head ~args)
        with
        | Some (loc, _) ->
          let protected = in_ranges (finally_ranges ~resolve stmt) loc in
          Some (List.rev acc, stmt, loc, protected)
        | None -> go (stmt :: acc) tl)
    in
    go [] rest
  in
  (* effect and evidence of the stretch between acquire and release:
     the whole in-between stmts plus the part of the releasing stmt
     before the release (a [let r = step () in Obs.disable (); r]
     releasing stmt hides the raising [step] from the in-between list
     otherwise) *)
  let stretch between stmt (rel_loc : Location.t) =
    let effects =
      List.map (Effects.expr_effect ~bound eff ~file) between
      @ [
          Effects.expr_effect ~mask:(from_cutoff rel_loc.loc_start.pos_cnum)
            ~bound eff ~file stmt;
        ]
    in
    ( List.fold_left
        (fun acc (sum, _) -> Effects.union acc sum)
        Effects.pure effects,
      List.find_map snd effects )
  in
  let check stmt rest p =
    match
      find_apply ~resolve stmt (fun ~head ~args:_ ~loc:_ ->
          Callgraph.last_two_segments head = p.acquire)
    with
    | None -> ()
    | Some (acq_loc, acq_args) -> (
      let target = if p.targeted then arg_name acq_args else None in
      let is_release ~head ~args =
        Callgraph.last_two_segments head = p.release
        && (target = None || arg_name args = target)
      in
      let subject =
        if p.targeted then
          Printf.sprintf "%s '%s'" p.acquire
            (Option.value ~default:"<lock>" target)
        else p.acquire
      in
      let unprotected phrase suffix =
        Printf.sprintf "code between %s and its unprotected %s %s%s; %s"
          subject p.release_word phrase suffix p.fix
      in
      (* a statement of an OUTER sequence can contain the whole protocol
         (acquire, body and release); search the same statement for a
         release strictly after the acquire before consulting [rest] *)
      let lo = acq_loc.Location.loc_end.pos_cnum in
      match
        find_apply ~resolve stmt (fun ~head ~args ~loc ->
            loc.Location.loc_start.pos_cnum > lo && is_release ~head ~args)
      with
      | Some (rel_loc, _) ->
        (* silent when the release sits in a [~finally]; otherwise flag
           if the acquire..release window may raise *)
        if not (in_ranges (finally_ranges ~resolve stmt) rel_loc) then begin
          let hi = rel_loc.Location.loc_start.pos_cnum in
          (* prune only subtrees ENTIRELY outside the window — the mask
             prunes children too, so a spanning container must stay
             visible for its in-window descendants *)
          let mask (e : Parsetree.expression) =
            let s = e.pexp_loc.loc_start.pos_cnum in
            let f = e.pexp_loc.loc_end.pos_cnum in
            s >= 0 && f >= 0 && (s >= hi || f <= lo)
          in
          let sum, _ = Effects.expr_effect ~mask ~bound eff ~file stmt in
          if not (Effects.is_pure sum) then
            once p.unprotected acq_loc (unprotected (raise_phrase sum) "")
        end
      | None -> (
        match find_release rest is_release with
        | None -> once p.missing acq_loc (subject ^ " " ^ p.never_released)
        | Some (_, _, _, true) -> ()
        | Some (between, rstmt, rloc, false) ->
          let sum, ev = stretch between rstmt rloc in
          if not (Effects.is_pure sum) then
            once p.unprotected acq_loc
              (unprotected (raise_phrase sum) (evidence_suffix ev))))
  in
  let rec walk = function
    | [] -> ()
    | stmt :: rest ->
      List.iter (check stmt rest) protocols;
      walk rest
  in
  walk stmts

(* ------------------------------------------------------------------ *)
(* X001: undocumented raising exports                                  *)
(* ------------------------------------------------------------------ *)

let doc_strings (attrs : Parsetree.attributes) =
  List.filter_map
    (fun (a : Parsetree.attribute) ->
      match a.attr_name.txt with
      | "ocaml.doc" | "doc" -> Callgraph.string_payload a.attr_payload
      | _ -> None)
    attrs

let has_raise_tag attrs =
  List.exists (fun s -> contains_sub s "@raise") (doc_strings attrs)

let check_interface ~eff ~file ~report (sg : Parsetree.signature) =
  if
    List.mem "lib" (Callgraph.segments file)
    && not (Callgraph.in_lib Callgraph.sanctioned file)
  then begin
    let modname = Callgraph.module_name_of_file file in
    List.iter
      (fun (item : Parsetree.signature_item) ->
        match item.psig_desc with
        | Psig_value vd -> (
          let node = modname ^ "." ^ vd.pval_name.txt in
          match Effects.summary eff node with
          | Effects.Known s
            when (not (SSet.is_empty s)) && not (has_raise_tag vd.pval_attributes)
            ->
            let exn = SSet.min_elt s in
            let chain = Effects.witness eff node ~exn in
            let suffix =
              if chain = [] then ""
              else
                Printf.sprintf "; witness: %s"
                  (String.concat " -> "
                     (Callgraph.hop (node, vd.pval_loc)
                     :: List.map Callgraph.hop chain))
            in
            report Rules.X001 vd.pval_loc
              (Printf.sprintf
                 "exported value '%s' may raise %s but its doc comment has \
                  no @raise tag%s; document the contract (@raise %s ...) or \
                  narrow the exceptions in the implementation"
                 vd.pval_name.txt
                 (String.concat ", " (SSet.elements s))
                 suffix exn)
          | _ -> ())
        | _ -> ())
      sg
  end

(* ------------------------------------------------------------------ *)
(* entry point                                                         *)
(* ------------------------------------------------------------------ *)

let check_structure ~eff ~file ~report str =
  if not (Callgraph.in_lib Callgraph.sanctioned file) then begin
    let graph = Effects.graph eff in
    let resolve = Callgraph.resolve graph ~file in
    let seen = Hashtbl.create 32 in
    let check_binding (b : Parsetree.expression) =
      let bound = Callgraph.bound_names b in
      let open Ast_iterator in
      let expr_iter iter (e : Parsetree.expression) =
        match e.pexp_desc with
        | Pexp_sequence _ ->
          (* [a; b; c] nests as [a; (b; c)]: check the whole chain once
             and descend into its statements, not into its suffixes *)
          let chain = sequence_chain e in
          check_chain ~eff ~file ~bound ~report ~seen chain;
          List.iter (iter.expr iter) chain
        | Pexp_let (_, vbs, body) ->
          List.iter
            (fun (vb : Parsetree.value_binding) ->
              match
                (vb.pvb_pat.ppat_desc, (Callgraph.peel vb.pvb_expr).pexp_desc)
              with
              | ( Ppat_var { txt = x; _ },
                  Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) )
                -> (
                match Option.bind (resolve txt) (fun h -> Option.map (fun r -> (h, r)) (acquire_of h)) with
                | Some (acquire_head, resource) ->
                  check_handle ~eff ~file ~bound ~report ~x ~acquire_head
                    ~resource ~acq_loc:vb.pvb_loc body
                | None -> ())
              | _ -> ())
            vbs;
          default_iterator.expr iter e
        | _ -> default_iterator.expr iter e
      in
      let iter = { default_iterator with expr = expr_iter } in
      iter.expr iter b
    in
    let rec walk_items (items : Parsetree.structure) =
      List.iter
        (fun (si : Parsetree.structure_item) ->
          match si.pstr_desc with
          | Pstr_value (_, vbs) ->
            List.iter
              (fun (vb : Parsetree.value_binding) -> check_binding vb.pvb_expr)
              vbs
          | Pstr_module
              { pmb_expr = { pmod_desc = Pmod_structure sub; _ }; _ } ->
            walk_items sub
          | _ -> ())
        items
    in
    walk_items str
  end
