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
      let mask (e : Parsetree.expression) =
        let c = e.pexp_loc.loc_start.pos_cnum in
        c >= 0 && c >= cutoff
      in
      let between = Effects.expr_summary ~mask ~bound eff ~file body in
      if not (Effects.is_pure between) then
        let ev = Effects.expr_evidence ~mask ~bound eff ~file body in
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

(* first application under [stmt] satisfying [pred] *)
let find_apply ~resolve stmt pred =
  let found = ref None in
  iter_applies ~resolve stmt (fun ~head ~args ~loc ->
      if !found = None && pred ~head ~args then found := Some (loc, args));
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
  let between_summary stmts =
    List.fold_left
      (fun acc s ->
        Effects.union acc (Effects.expr_summary ~bound eff ~file s))
      Effects.pure stmts
  in
  let between_evidence stmts =
    List.find_map (fun s -> Effects.expr_evidence ~bound eff ~file s) stmts
  in
  (* split [rest] at the first stmt containing an (unmasked) release;
     returns the in-between stmts, the releasing stmt with the release
     location, and whether the release sits inside a [Fun.protect
     ~finally] *)
  let find_release rest is_release =
    let rec go acc = function
      | [] -> None
      | stmt :: tl -> (
        match find_apply ~resolve stmt is_release with
        | Some (loc, _) ->
          let protected = in_ranges (finally_ranges ~resolve stmt) loc in
          Some (List.rev acc, stmt, loc, protected)
        | None -> go (stmt :: acc) tl)
    in
    go [] rest
  in
  (* effect of the stretch between acquire and release: the whole
     in-between stmts plus the part of the releasing stmt before the
     release (a [let r = step () in Obs.disable (); r] releasing stmt
     hides the raising [step] from the in-between list otherwise) *)
  let stretch_summary between stmt (rel_loc : Location.t) =
    let cutoff = rel_loc.loc_start.pos_cnum in
    let mask (e : Parsetree.expression) =
      let c = e.pexp_loc.loc_start.pos_cnum in
      c >= 0 && c >= cutoff
    in
    Effects.union (between_summary between)
      (Effects.expr_summary ~mask ~bound eff ~file stmt)
  in
  let stretch_evidence between stmt (rel_loc : Location.t) =
    match between_evidence between with
    | Some ev -> Some ev
    | None ->
      let cutoff = rel_loc.loc_start.pos_cnum in
      let mask (e : Parsetree.expression) =
        let c = e.pexp_loc.loc_start.pos_cnum in
        c >= 0 && c >= cutoff
      in
      Effects.expr_evidence ~mask ~bound eff ~file stmt
  in
  (* a statement of an OUTER sequence can contain the whole protocol
     (acquire, body and release); search the same statement for a
     release strictly after the acquire before consulting [rest] *)
  let find_release_in stmt ~after is_release =
    let found = ref None in
    iter_applies ~resolve stmt (fun ~head ~args ~loc ->
        if
          !found = None
          && loc.Location.loc_start.pos_cnum > after
          && is_release ~head ~args
        then found := Some loc);
    !found
  in
  (* release found in the acquiring statement itself: silent when it
     sits in a [~finally]; otherwise flag if the masked in-between
     stretch may raise *)
  let same_stmt_release stmt ~en_loc dis_loc ~rule ~msg =
    if not (in_ranges (finally_ranges ~resolve stmt) dis_loc) then begin
      let lo = en_loc.Location.loc_end.pos_cnum in
      let hi = dis_loc.Location.loc_start.pos_cnum in
      (* prune only subtrees ENTIRELY outside the acquire..release
         window — the mask prunes children too, so a spanning
         container must stay visible for its in-window descendants *)
      let mask (e : Parsetree.expression) =
        let s = e.pexp_loc.loc_start.pos_cnum in
        let f = e.pexp_loc.loc_end.pos_cnum in
        s >= 0 && f >= 0 && (s >= hi || f <= lo)
      in
      let sum = Effects.expr_summary ~mask ~bound eff ~file stmt in
      if not (Effects.is_pure sum) then
        once rule en_loc (msg (raise_phrase sum))
    end
  in
  let rec walk = function
    | [] -> ()
    | stmt :: rest ->
      (* Mutex.lock m, protocol scoped to this sequence *)
      (match
         find_apply ~resolve stmt (fun ~head ~args:_ ->
             Callgraph.last_two_segments head = "Mutex.lock")
       with
      | Some (lock_loc, lock_args) -> (
        let target = arg_name lock_args in
        let is_unlock ~head ~args =
          Callgraph.last_two_segments head = "Mutex.unlock"
          && (target = None || arg_name args = target)
        in
        let lock_name = Option.value ~default:"<lock>" target in
        match
          find_release_in stmt ~after:lock_loc.Location.loc_end.pos_cnum
            is_unlock
        with
        | Some dis_loc ->
          same_stmt_release stmt ~en_loc:lock_loc dis_loc ~rule:Rules.R002
            ~msg:(fun phrase ->
              Printf.sprintf
                "code between Mutex.lock '%s' and its unprotected unlock %s; \
                 use Mutex.protect so the unlock runs on the raising path"
                lock_name phrase)
        | None -> (
        match find_release rest is_unlock with
        | None ->
          once Rules.R001 lock_loc
            (Printf.sprintf
               "Mutex.lock '%s' has no matching unlock in the rest of this \
                statement sequence; the raising (or early-return) path \
                leaves it held — use Mutex.protect"
               lock_name)
        | Some (_, _, _, true) -> ()
        | Some (between, rstmt, rloc, false) ->
          let sum = stretch_summary between rstmt rloc in
          if not (Effects.is_pure sum) then
            once Rules.R002 lock_loc
              (Printf.sprintf
                 "code between Mutex.lock '%s' and its unprotected unlock \
                  %s%s; use Mutex.protect so the unlock runs on the raising \
                  path"
                 lock_name (raise_phrase sum)
                 (evidence_suffix (stretch_evidence between rstmt rloc)))))
      | None -> ());
      (* Obs.enable () toggle protocol *)
      (match
         find_apply ~resolve stmt (fun ~head ~args:_ ->
             Callgraph.last_two_segments head = "Obs.enable")
       with
      | Some (en_loc, _) -> (
        let is_disable ~head ~args:_ =
          Callgraph.last_two_segments head = "Obs.disable"
        in
        match
          find_release_in stmt ~after:en_loc.Location.loc_end.pos_cnum
            is_disable
        with
        | Some dis_loc ->
          same_stmt_release stmt ~en_loc dis_loc ~rule:Rules.R003
            ~msg:(fun phrase ->
              Printf.sprintf
                "code between Obs.enable and its unprotected Obs.disable %s; \
                 move the disable into a Fun.protect ~finally so the raising \
                 path restores the toggle"
                phrase)
        | None -> (
        match find_release rest is_disable with
        | None ->
          once Rules.R003 en_loc
            (Printf.sprintf
               "Obs.enable is never balanced by Obs.disable in the rest of \
                this statement sequence; the telemetry toggle leaks across \
                the next caller — put the disable in a Fun.protect ~finally")
        | Some (_, _, _, true) -> ()
        | Some (between, rstmt, rloc, false) ->
          let sum = stretch_summary between rstmt rloc in
          if not (Effects.is_pure sum) then
            once Rules.R003 en_loc
              (Printf.sprintf
                 "code between Obs.enable and its unprotected Obs.disable \
                  %s%s; move the disable into a Fun.protect ~finally so the \
                  raising path restores the toggle"
                 (raise_phrase sum)
                 (evidence_suffix (stretch_evidence between rstmt rloc)))))
      | None -> ());
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
      | "ocaml.doc" | "doc" -> (
        match a.attr_payload with
        | PStr
            [
              {
                pstr_desc =
                  Pstr_eval
                    ( {
                        pexp_desc = Pexp_constant (Pconst_string (s, _, _));
                        _;
                      },
                      _ );
                _;
              };
            ] ->
          Some s
        | _ -> None)
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
        (match e.pexp_desc with
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
            vbs
        | Pexp_sequence _ ->
          check_chain ~eff ~file ~bound ~report ~seen (sequence_chain e)
        | _ -> ());
        default_iterator.expr iter e
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
