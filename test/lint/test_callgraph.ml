(* Tests for the call-graph harvester behind the parallel-safety pass:
   direct and cross-module edges, module-alias expansion, fixpoint
   termination on recursion, the opaque-terminal default for unknown
   externals, and (as a QCheck property) monotonicity of reachability
   under edge insertion. *)

module Callgraph = Es_analysis.Callgraph

let parse_structure ~file src =
  let lexbuf = Lexing.from_string src in
  Location.init lexbuf file;
  Parse.implementation lexbuf

let graph_of sources =
  let g = Callgraph.create () in
  List.iter
    (fun (file, src) -> Callgraph.add_source g ~file (parse_structure ~file src))
    sources;
  g

let edge_names g id = List.map fst (Callgraph.edges g id)
let contains xs x = List.mem x xs
let check_mem msg xs x = Alcotest.(check bool) msg true (contains xs x)

(* ------------------------------------------------------------------ *)

let test_direct_call () =
  let g =
    graph_of
      [
        ( "lib/x/m.ml",
          "let helper x = x + 1\nlet main xs = List.map helper xs\n" );
      ]
  in
  check_mem "main references helper" (edge_names g "M.main") "M.helper";
  check_mem "helper reachable from main"
    (Callgraph.reachable g ~roots:[ "M.main" ])
    "M.helper";
  Alcotest.(check bool)
    "no reverse edge" false
    (contains (edge_names g "M.helper") "M.main")

let test_cross_module_call () =
  let g =
    graph_of
      [
        ("lib/x/store.ml", "let put k = k\n");
        ("lib/x/client.ml", "let go k = Store.put k\n");
      ]
  in
  check_mem "edge crosses module boundary" (edge_names g "Client.go")
    "Store.put";
  Alcotest.(check bool) "callee is a known def" true
    (Callgraph.has_def g "Store.put")

let test_module_alias () =
  let g =
    graph_of
      [
        ("lib/x/store.ml", "let put k = k\n");
        ("lib/x/client.ml", "module S = Store\nlet go k = S.put k\n");
      ]
  in
  (* [S.put] must resolve through the alias to the Store node *)
  check_mem "alias expands to the aliased module" (edge_names g "Client.go")
    "Store.put";
  check_mem "reachability follows the alias"
    (Callgraph.reachable g ~roots:[ "Client.go" ])
    "Store.put"

let test_recursion_terminates () =
  (* mutual recursion plus self-recursion: reachability must terminate
     by visited-set and include the whole cycle once *)
  let g =
    graph_of
      [
        ( "lib/x/cycle.ml",
          "let rec odd n = if n = 0 then false else even (n - 1)\n\
           and even n = if n = 0 then true else odd (n - 1)\n\
           let rec loop x = loop x\n" );
      ]
  in
  let r = Callgraph.reachable g ~roots:[ "Cycle.odd" ] in
  check_mem "odd reaches even" r "Cycle.even";
  check_mem "cycle includes the root" r "Cycle.odd";
  let self = Callgraph.reachable g ~roots:[ "Cycle.loop" ] in
  check_mem "self-recursion terminates" self "Cycle.loop"

let test_unknown_external_is_opaque_terminal () =
  let g = graph_of [ ("lib/x/m.ml", "let f xs = External_lib.frob xs\n") ] in
  (* the unknown name appears as a leaf: reachable, but with no def and
     no outgoing edges — the soundness default assumes no further
     effects and leaves danger to the explicit deny-lists *)
  let r = Callgraph.reachable g ~roots:[ "M.f" ] in
  check_mem "external is reachable" r "External_lib.frob";
  Alcotest.(check bool) "external has no def" false
    (Callgraph.has_def g "External_lib.frob");
  Alcotest.(check (list (pair string Alcotest.reject)))
    "external has no outgoing edges" []
    (Callgraph.edges g "External_lib.frob")

let test_resolve_strips_stdlib () =
  let g = graph_of [ ("lib/x/m.ml", "let f h = Stdlib.Hashtbl.reset h\n") ] in
  check_mem "Stdlib. prefix is stripped" (edge_names g "M.f") "Hashtbl.reset"

(* ------------------------------------------------------------------ *)
(* property: reachability is monotone under adding edges               *)
(* ------------------------------------------------------------------ *)

let node_names = [ "a"; "b"; "c"; "d"; "e"; "f"; "g" ]
let node_gen = QCheck.Gen.oneofl node_names

let spec_gen =
  QCheck.Gen.(list_size (int_range 0 12) (pair node_gen (list_size (int_range 0 3) node_gen)))

let print_spec spec =
  String.concat "; "
    (List.map (fun (s, ds) -> s ^ "->[" ^ String.concat "," ds ^ "]") spec)

let arb_case =
  QCheck.make
    ~print:(fun (spec, (s, d), root) ->
      Printf.sprintf "{%s} +%s->%s from %s" (print_spec spec) s d root)
    QCheck.Gen.(triple spec_gen (pair node_gen node_gen) node_gen)

(* Every node gets a [let]; every edge becomes a call in its body. *)
let source_of spec =
  String.concat ""
    (List.map
       (fun n ->
         let calls =
           List.concat_map
             (fun (s, ds) -> if s = n then List.map (fun d -> d ^ " ()") ds else [])
             spec
         in
         Printf.sprintf "let %s () = %s\n" n
           (if calls = [] then "()" else String.concat "; " calls))
       node_names)

let subset xs ys = List.for_all (fun x -> List.mem x ys) xs

let monotone_law (spec, (src, dst), root) =
  let reach spec =
    Callgraph.reachable
      (graph_of [ ("lib/x/m.ml", source_of spec) ])
      ~roots:[ "M." ^ root ]
  in
  subset (reach spec) (reach (spec @ [ (src, [ dst ]) ]))

let reachability_monotone =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:300 ~name:"reachable set only grows with edges"
       arb_case monotone_law)

(* ------------------------------------------------------------------ *)

let suite =
  ( "callgraph",
    [
      Alcotest.test_case "direct call becomes an edge" `Quick test_direct_call;
      Alcotest.test_case "cross-module call resolves" `Quick
        test_cross_module_call;
      Alcotest.test_case "module alias expands" `Quick test_module_alias;
      Alcotest.test_case "recursion terminates" `Quick test_recursion_terminates;
      Alcotest.test_case "unknown external is an opaque terminal" `Quick
        test_unknown_external_is_opaque_terminal;
      Alcotest.test_case "Stdlib prefix stripped" `Quick
        test_resolve_strips_stdlib;
      reachability_monotone;
    ] )

let () = Alcotest.run "energy_sched_callgraph" [ suite ]
