(* Tests for the may-raise effect inference (layer 1 of the
   exception-flow pass): introduction from raise/failwith/invalid_arg,
   cross-module propagation, try/with narrowing and catch-all
   clearing, locally-scoped exceptions, Top on unknown externals,
   fixpoint termination on recursion, the reading order of the raise
   evidence [expr_effect] reports, and (as a QCheck property)
   monotonicity of summaries under edge insertion on generated
   sources. *)

module Callgraph = Es_analysis.Callgraph
module Effects = Es_analysis.Effects

let parse_structure ~file src =
  let lexbuf = Lexing.from_string src in
  Location.init lexbuf file;
  Parse.implementation lexbuf

let env_of sources =
  let g = Callgraph.create () in
  List.iter
    (fun (file, src) -> Callgraph.add_source g ~file (parse_structure ~file src))
    sources;
  Effects.infer g

let exns env id = Effects.to_list (Effects.summary env id)

let check_exns msg env id expected =
  Alcotest.(check (option (list string))) msg expected (exns env id)

(* ------------------------------------------------------------------ *)

let test_introduction () =
  let env =
    env_of
      [
        ( "lib/x/m.ml",
          "let f () = invalid_arg \"f\"\n\
           let g () = failwith \"g\"\n\
           let h () = raise Exit\n\
           let pure x = x + 1\n" );
      ]
  in
  check_exns "invalid_arg introduces Invalid_argument" env "M.f"
    (Some [ "Invalid_argument" ]);
  check_exns "failwith introduces Failure" env "M.g" (Some [ "Failure" ]);
  check_exns "raise introduces the constructor" env "M.h" (Some [ "Exit" ]);
  check_exns "arithmetic is pure" env "M.pure" (Some [])

let test_cross_module () =
  let env =
    env_of
      [
        ("lib/x/store.ml", "let put k = if k < 0 then invalid_arg \"put\"\n");
        ("lib/x/client.ml", "let go k = Store.put k\n");
      ]
  in
  check_exns "callee summary flows to the caller" env "Client.go"
    (Some [ "Invalid_argument" ])

let test_try_narrows () =
  let env =
    env_of
      [
        ( "lib/x/m.ml",
          "let risky k = if k < 0 then invalid_arg \"risky\" else k\n\
           let guarded k = try risky k with Invalid_argument _ -> 0\n\
           let rethrow k =\n\
          \  try risky k with Invalid_argument _ -> failwith \"no\"\n" );
      ]
  in
  check_exns "specific handler removes the constructor" env "M.guarded"
    (Some []);
  check_exns "handler body effects are added back" env "M.rethrow"
    (Some [ "Failure" ])

let test_catchall_clears_top () =
  let env =
    env_of
      [
        ( "lib/x/m.ml",
          "let wild x = External_lib.frob x\n\
           let tamed x = try External_lib.frob x with _ -> 0\n" );
      ]
  in
  check_exns "unknown external in call position is Top" env "M.wild" None;
  check_exns "an unguarded catch-all clears even Top" env "M.tamed" (Some [])

let test_local_exception_scoped () =
  (* the internal-iterator escape idiom: the exception is declared,
     raised and caught entirely inside the binding, and its name is
     not even denotable by callers — the summary must stay pure *)
  let env =
    env_of
      [
        ( "lib/x/m.ml",
          "let first_pos xs =\n\
          \  let exception Found of int in\n\
          \  try\n\
          \    List.iter (fun x -> if x > 0 then raise (Found x)) xs;\n\
          \    0\n\
          \  with Found x -> x\n" );
      ]
  in
  check_exns "locally-declared exception stays in scope" env "M.first_pos"
    (Some [])

let test_recursion_fixpoint () =
  let env =
    env_of
      [
        ( "lib/x/cycle.ml",
          "let rec odd n = if n = 0 then false else even (n - 1)\n\
           and even n =\n\
          \  if n < 0 then invalid_arg \"even\"\n\
          \  else if n = 0 then true\n\
          \  else odd (n - 1)\n" );
      ]
  in
  check_exns "the exception reaches the whole cycle" env "Cycle.odd"
    (Some [ "Invalid_argument" ]);
  check_exns "the introducer keeps it too" env "Cycle.even"
    (Some [ "Invalid_argument" ])

(* ------------------------------------------------------------------ *)
(* evidence: the first raising thing in reading order                  *)
(* ------------------------------------------------------------------ *)

(* [expr_effect] over the binding [M.<name>] of one source: the
   evidence's exception and its hops as [name:line] *)
let evidence_of src name =
  let env = env_of [ ("lib/x/m.ml", src) ] in
  match Callgraph.defs (Effects.graph env) ("M." ^ name) with
  | [ d ] ->
    Option.map
      (fun (ev : Effects.evidence) ->
        ( ev.e_exn,
          List.map
            (fun (hop, (loc : Location.t)) ->
              Printf.sprintf "%s:%d" hop loc.loc_start.pos_lnum)
            ev.e_hops ))
      (snd (Effects.expr_effect env ~file:d.d_file d.d_expr))
  | _ -> Alcotest.failf "no single binding M.%s" name

let check_evidence msg expected actual =
  Alcotest.(check (option (pair (option string) (list string))))
    msg expected actual

let test_evidence_raise_head_first () =
  let src =
    "let f x = if x < 0 then invalid_arg \"f\" else x\n\
     let g x = raise (Failure (string_of_int (f x)))\n"
  in
  check_evidence "the raise, not the raising argument"
    (Some (Some "Failure", [ "raise:2" ]))
    (evidence_of src "g")

let test_evidence_pure_try () =
  let src = "let h x = try if x then raise Exit else 0 with Exit -> 1\n" in
  check_evidence "a try whose handler catches its body's raise" None
    (evidence_of src "h")

let test_evidence_body_before_handlers () =
  let src =
    "let k x =\n\
    \  try if x then failwith \"body\" else raise Exit\n\
    \  with Exit -> invalid_arg \"handler\"\n"
  in
  check_evidence "the body's first raise, then the handlers'"
    (Some (Some "Failure", [ "failwith:2" ]))
    (evidence_of src "k")

(* ------------------------------------------------------------------ *)
(* property: summaries are monotone under adding callgraph edges       *)
(* ------------------------------------------------------------------ *)

let node_names = [ "a"; "b"; "c"; "d"; "e"; "f"; "g" ]
let node_gen = QCheck.Gen.oneofl node_names

let spec_gen =
  QCheck.Gen.(
    list_size (int_range 0 12) (pair node_gen (list_size (int_range 0 3) node_gen)))

(* [None] is Top: an unknown external reached in call position *)
let summary_gen =
  QCheck.Gen.(
    frequency
      [
        (1, return None);
        (4, map Option.some (list_size (int_range 0 2) (oneofl [ "A"; "B"; "C" ])));
      ])

let seeds_gen =
  QCheck.Gen.(list_size (int_range 0 5) (pair node_gen summary_gen))

let print_summary = function
  | None -> "Top"
  | Some xs -> "{" ^ String.concat "," xs ^ "}"

let print_case (spec, seeds, (src, dst), root) =
  Printf.sprintf "{%s} seeds {%s} +%s->%s from %s"
    (String.concat "; "
       (List.map (fun (s, ds) -> s ^ "->[" ^ String.concat "," ds ^ "]") spec))
    (String.concat "; "
       (List.map (fun (n, s) -> n ^ "=" ^ print_summary s) seeds))
    src dst root

let arb_case =
  QCheck.make ~print:print_case
    QCheck.Gen.(quad spec_gen seeds_gen (pair node_gen node_gen) node_gen)

(* Every node gets a [let]; its body calls each successor, raises each
   seeded exception, and calls the undefined [Ext.f] for a Top seed. *)
let source_of spec seeds =
  String.concat ""
    (List.map
       (fun n ->
         let calls =
           List.concat_map
             (fun (s, ds) -> if s = n then List.map (fun d -> d ^ " ()") ds else [])
             spec
         in
         let raises =
           List.concat_map
             (fun (s, seed) ->
               if s <> n then []
               else
                 match seed with
                 | None -> [ "Ext.f ()" ]
                 | Some exns -> List.map (fun x -> "raise " ^ x) exns)
             seeds
         in
         let body = calls @ raises in
         Printf.sprintf "let %s () = %s\n" n
           (if body = [] then "()" else String.concat "; " body))
       node_names)

(* the lattice order, through the public interface *)
let leq a b =
  match (Effects.to_list a, Effects.to_list b) with
  | _, None -> true
  | None, Some _ -> false
  | Some xs, Some ys -> List.for_all (fun x -> List.mem x ys) xs

let monotone_law (spec, seeds, (src, dst), root) =
  let summarise spec =
    Effects.summary
      (env_of [ ("lib/x/m.ml", source_of spec seeds) ])
      ("M." ^ root)
  in
  leq (summarise spec) (summarise (spec @ [ (src, [ dst ]) ]))

let summaries_monotone =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:300
       ~name:"adding a callgraph edge never shrinks a summary" arb_case
       monotone_law)

(* ------------------------------------------------------------------ *)

let suite =
  ( "effects",
    [
      Alcotest.test_case "introduction forms" `Quick test_introduction;
      Alcotest.test_case "cross-module propagation" `Quick test_cross_module;
      Alcotest.test_case "try/with narrows" `Quick test_try_narrows;
      Alcotest.test_case "catch-all clears Top" `Quick test_catchall_clears_top;
      Alcotest.test_case "local exception stays scoped" `Quick
        test_local_exception_scoped;
      Alcotest.test_case "recursion reaches a fixpoint" `Quick
        test_recursion_fixpoint;
      Alcotest.test_case "evidence names a raise before its argument" `Quick
        test_evidence_raise_head_first;
      Alcotest.test_case "evidence skips a try that ends pure" `Quick
        test_evidence_pure_try;
      Alcotest.test_case "evidence reads a try body before its handlers"
        `Quick test_evidence_body_before_handlers;
      summaries_monotone;
    ] )

let () = Alcotest.run "energy_sched_effects" [ suite ]
