(* Tests for the declaration table behind the interprocedural passes:
   how a reference resolves from the file that reads it — direct,
   cross-module, through a module alias, with [Stdlib.] stripped,
   through a wrapped library path into a file declared later — and the
   opaque-leaf default for unknown externals.  The walks over the
   table (the P pass's region walk, the effects fixpoint and its
   witnesses) are tested through their rules in test_lint.ml and
   test_effects.ml. *)

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

(* [path] as a pass reading it in [file] resolves it *)
let check_resolves msg g ~file path expected =
  Alcotest.(check (option string))
    msg (Some expected)
    (Callgraph.resolve g ~file (Parse.longident (Lexing.from_string path)))

(* ------------------------------------------------------------------ *)

let test_direct_call () =
  let g =
    graph_of
      [
        ( "lib/x/m.ml",
          "let helper x = x + 1\nlet main xs = List.map helper xs\n" );
      ]
  in
  check_resolves "a name the module defines is its node" g ~file:"lib/x/m.ml"
    "helper" "M.helper";
  check_resolves "a name it does not define stays bare" g ~file:"lib/x/m.ml"
    "xs" "xs";
  Alcotest.(check (list string))
    "every top-level binding is a node" [ "M.helper"; "M.main" ]
    (Callgraph.nodes g)

let test_cross_module_call () =
  let g =
    graph_of
      [
        ("lib/x/store.ml", "let put k = k\n");
        ("lib/x/client.ml", "let go k = Store.put k\n");
      ]
  in
  check_resolves "the path names the other module's node" g
    ~file:"lib/x/client.ml" "Store.put" "Store.put";
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
  check_resolves "alias expands to the aliased module" g
    ~file:"lib/x/client.ml" "S.put" "Store.put";
  check_resolves "the alias is per file" g ~file:"lib/x/store.ml" "S.put"
    "S.put"

let test_wrapped_path_into_later_file () =
  (* alpha.ml is declared before beta.ml, as a sorted directory walk
     declares them; resolution reads the finished table, so the wrapped
     library path still names Beta's node *)
  let g =
    graph_of
      [
        ("lib/x/alpha.ml", "let f x = Es_x.Beta.g x\n");
        ("lib/x/beta.ml", "let g x = x\n");
      ]
  in
  check_resolves "the wrapped path names the later file's node" g
    ~file:"lib/x/alpha.ml" "Es_x.Beta.g" "Beta.g";
  Alcotest.(check bool) "and that node is declared" true
    (Callgraph.has_def g "Beta.g")

let test_unknown_external_is_opaque_terminal () =
  let g = graph_of [ ("lib/x/m.ml", "let f xs = External_lib.frob xs\n") ] in
  (* the unknown name keeps its resolved name but has no def: the
     passes stop there, assume no further effects and leave danger to
     their explicit deny-lists and catalogues *)
  check_resolves "external keeps its name" g ~file:"lib/x/m.ml"
    "External_lib.frob" "External_lib.frob";
  Alcotest.(check bool) "external has no def" false
    (Callgraph.has_def g "External_lib.frob");
  Alcotest.(check bool) "and is not sanctioned" false
    (Callgraph.node_sanctioned g "External_lib.frob");
  Alcotest.(check (list string)) "only the binding is a node" [ "M.f" ]
    (Callgraph.nodes g)

let test_resolve_strips_stdlib () =
  let g = graph_of [ ("lib/x/m.ml", "let f h = Stdlib.Hashtbl.reset h\n") ] in
  check_resolves "Stdlib. prefix is stripped" g ~file:"lib/x/m.ml"
    "Stdlib.Hashtbl.reset" "Hashtbl.reset"

(* ------------------------------------------------------------------ *)

let suite =
  ( "callgraph",
    [
      Alcotest.test_case "direct call resolves to a module node" `Quick
        test_direct_call;
      Alcotest.test_case "cross-module call resolves" `Quick
        test_cross_module_call;
      Alcotest.test_case "module alias expands" `Quick test_module_alias;
      Alcotest.test_case "wrapped path into a later file resolves" `Quick
        test_wrapped_path_into_later_file;
      Alcotest.test_case "unknown external is an opaque terminal" `Quick
        test_unknown_external_is_opaque_terminal;
      Alcotest.test_case "Stdlib prefix stripped" `Quick
        test_resolve_strips_stdlib;
    ] )

let () = Alcotest.run "energy_sched_callgraph" [ suite ]
