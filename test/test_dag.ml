(* Tests for the DAG substrate: construction/validation, topological
   order, critical paths, slack, transitive reduction, generators. *)

let diamond () =
  (* 0 -> {1,2} -> 3 *)
  Dag.make ?labels:None ~weights:[| 1.; 2.; 3.; 4. |]
    ~edges:[ (0, 1); (0, 2); (1, 3); (2, 3) ]

let test_make_valid () =
  let d = diamond () in
  Alcotest.(check int) "n" 4 (Dag.n d);
  Alcotest.(check int) "edges" 4 (Dag.n_edges d);
  Alcotest.(check (list int)) "succs 0" [ 1; 2 ] (Dag.succs d 0);
  Alcotest.(check (list int)) "preds 3" [ 1; 2 ] (Dag.preds d 3);
  Alcotest.(check (list int)) "sources" [ 0 ] (Dag.sources d);
  Alcotest.(check (list int)) "sinks" [ 3 ] (Dag.sinks d)

let test_rejects_cycle () =
  Alcotest.check_raises "cycle" (Invalid_argument "Dag: cycle detected") (fun () ->
      ignore (Dag.make ?labels:None ~weights:[| 1.; 1. |] ~edges:[ (0, 1); (1, 0) ]))

let test_rejects_self_loop () =
  Alcotest.check_raises "self loop" (Invalid_argument "Dag.make: self loop") (fun () ->
      ignore (Dag.make ?labels:None ~weights:[| 1. |] ~edges:[ (0, 0) ]))

let test_rejects_bad_weight () =
  Alcotest.check_raises "weight" (Invalid_argument "Dag.make: weight 0 not positive")
    (fun () -> ignore (Dag.make ?labels:None ~weights:[| 0. |] ~edges:[]))

let test_duplicate_edges_collapsed () =
  let d = Dag.make ?labels:None ~weights:[| 1.; 1. |] ~edges:[ (0, 1); (0, 1) ] in
  Alcotest.(check int) "single edge" 1 (Dag.n_edges d)

let test_topological_order () =
  let d = diamond () in
  let order = Dag.topological_order d in
  let pos = Array.make 4 0 in
  Array.iteri (fun k i -> pos.(i) <- k) order;
  List.iter
    (fun (i, j) -> Alcotest.(check bool) "edge forward" true (pos.(i) < pos.(j)))
    (Dag.edges d)

let test_critical_path () =
  let d = diamond () in
  let durations = Dag.weights d in
  (* longest path 0 -> 2 -> 3 : 1 + 3 + 4 = 8 *)
  Alcotest.(check (float 1e-12)) "cp" 8. (Dag.critical_path_length d ~durations)

let test_earliest_latest_slack () =
  let d = diamond () in
  let durations = Dag.weights d in
  let es = Dag.earliest_start d ~durations in
  Alcotest.(check (float 1e-12)) "es0" 0. es.(0);
  Alcotest.(check (float 1e-12)) "es1" 1. es.(1);
  Alcotest.(check (float 1e-12)) "es3" 4. es.(3);
  let slack = Dag.slack d ~durations ~deadline:8. in
  (* task 1 (weight 2) has 1 unit of float; the others are critical *)
  Alcotest.(check (float 1e-12)) "slack crit 0" 0. slack.(0);
  Alcotest.(check (float 1e-12)) "slack task 1" 1. slack.(1);
  Alcotest.(check (float 1e-12)) "slack crit 2" 0. slack.(2);
  Alcotest.(check (float 1e-12)) "slack crit 3" 0. slack.(3)

let test_slack_with_loose_deadline () =
  let d = diamond () in
  let slack = Dag.slack d ~durations:(Dag.weights d) ~deadline:10. in
  Array.iter (fun s -> Alcotest.(check bool) "slack grows" true (s >= 2. -. 1e-12)) slack

let test_transitive_reduction () =
  (* 0->1->2 plus shortcut 0->2: reduction drops the shortcut *)
  let d =
    Dag.make ?labels:None ~weights:[| 1.; 1.; 1. |] ~edges:[ (0, 1); (1, 2); (0, 2) ]
  in
  let r = Dag.transitive_reduction d in
  Alcotest.(check int) "edge dropped" 2 (Dag.n_edges r);
  Alcotest.(check bool) "0->2 gone" false (Dag.is_edge r 0 2)

(* Heads ranked more than 62 tasks after their tail, past the
   reduction's bit-set window: a 100-task chain with the shortcut
   0->99, which the chain implies, and a source 100 with edges to 99
   and to a sink 101, which nothing implies. *)
let test_transitive_reduction_far () =
  let chain = List.init 99 (fun i -> (i, i + 1)) in
  let d =
    Dag.make ?labels:None ~weights:(Array.make 102 1.)
      ~edges:((0, 99) :: (100, 99) :: (100, 101) :: chain)
  in
  let r = Dag.transitive_reduction d in
  Alcotest.(check bool) "0->99 implied" false (Dag.is_edge r 0 99);
  Alcotest.(check bool) "100->99 kept" true (Dag.is_edge r 100 99);
  Alcotest.(check int) "edges" 101 (Dag.n_edges r)

let test_reverse () =
  let d = diamond () in
  let r = Dag.reverse d in
  Alcotest.(check (list int)) "reversed sources" [ 3 ] (Dag.sources r);
  Alcotest.(check bool) "edge flipped" true (Dag.is_edge r 3 1)

let test_map_weights () =
  let d = diamond () in
  let doubled = Dag.map_weights d (fun _ w -> 2. *. w) in
  Alcotest.(check (float 1e-12)) "total doubled" (2. *. Dag.total_weight d)
    (Dag.total_weight doubled)

(* generators *)

let rng () = Es_util.Rng.create ~seed:77

let test_gen_chain () =
  let d = Generators.chain (rng ()) ~n:6 ~wlo:1. ~whi:2. in
  Alcotest.(check int) "n" 6 (Dag.n d);
  Alcotest.(check int) "edges" 5 (Dag.n_edges d);
  Alcotest.(check (list int)) "one source" [ 0 ] (Dag.sources d)

let test_gen_fork () =
  let d = Generators.fork (rng ()) ~n:5 ~wlo:1. ~whi:2. in
  Alcotest.(check int) "n" 6 (Dag.n d);
  Alcotest.(check (list int)) "source" [ 0 ] (Dag.sources d);
  Alcotest.(check int) "children are sinks" 5 (List.length (Dag.sinks d))

let test_gen_fork_join () =
  let d = Generators.fork_join (rng ()) ~n:4 ~wlo:1. ~whi:2. in
  Alcotest.(check int) "n" 6 (Dag.n d);
  Alcotest.(check (list int)) "source" [ 0 ] (Dag.sources d);
  Alcotest.(check (list int)) "sink" [ 5 ] (Dag.sinks d)

let test_gen_layered_connected () =
  let d = Generators.random_layered (rng ()) ~layers:5 ~width:4 ~density:0.2 ~wlo:1. ~whi:2. in
  (* every non-source task has a predecessor by construction *)
  let sources = Dag.sources d in
  List.iter
    (fun i ->
      if not (List.mem i sources) then
        Alcotest.(check bool) "has pred" true (Dag.preds d i <> []))
    (List.init (Dag.n d) Fun.id)

let test_gen_out_tree () =
  let d = Generators.out_tree (rng ()) ~n:15 ~max_children:3 ~wlo:1. ~whi:2. in
  Alcotest.(check int) "edges = n-1" 14 (Dag.n_edges d);
  List.iteri
    (fun i _ ->
      Alcotest.(check bool) "arity capped" true (List.length (Dag.succs d i) <= 3))
    (List.init 15 Fun.id)

let test_gen_in_tree () =
  let d = Generators.in_tree (rng ()) ~n:10 ~max_children:2 ~wlo:1. ~whi:2. in
  Alcotest.(check int) "single sink" 1 (List.length (Dag.sinks d))

let test_gen_lu_structure () =
  let d = Generators.lu ~n:3 in
  (* 3 pivots + 2·(2+1) panels + (4+1) updates = 14 tasks *)
  Alcotest.(check int) "task count" 14 (Dag.n d);
  Alcotest.(check (list int)) "single source (first pivot)" [ 0 ] (Dag.sources d)

let test_gen_fft_structure () =
  let d = Generators.fft ~levels:3 in
  Alcotest.(check int) "tasks = (levels+1)·lanes" 32 (Dag.n d);
  (* butterfly: every non-input task has exactly 2 predecessors *)
  List.iter
    (fun i ->
      if Dag.preds d i <> [] then
        Alcotest.(check int) "two preds" 2 (List.length (Dag.preds d i)))
    (List.init (Dag.n d) Fun.id)

let test_gen_stencil_structure () =
  let d = Generators.stencil ~rows:3 ~cols:4 in
  Alcotest.(check int) "tasks" 12 (Dag.n d);
  Alcotest.(check (list int)) "corner source" [ 0 ] (Dag.sources d);
  Alcotest.(check (list int)) "corner sink" [ 11 ] (Dag.sinks d)

let qcheck_random_dag_acyclic =
  QCheck.Test.make ~name:"random_dag builds valid DAGs" ~count:50
    QCheck.(pair (int_bound 10_000) (int_range 1 30))
    (fun (seed, n) ->
      let r = Es_util.Rng.create ~seed in
      let d = Generators.random_dag r ~n ~p:0.3 ~wlo:1. ~whi:2. in
      Array.length (Dag.topological_order d) = n)

let qcheck_slack_nonneg_at_cp =
  QCheck.Test.make ~name:"slack >= 0 at the critical-path deadline" ~count:50
    QCheck.(int_bound 10_000)
    (fun seed ->
      let r = Es_util.Rng.create ~seed in
      let d = Generators.random_layered r ~layers:4 ~width:4 ~density:0.4 ~wlo:1. ~whi:3. in
      let durations = Dag.weights d in
      let deadline = Dag.critical_path_length d ~durations in
      let slack = Dag.slack d ~durations ~deadline in
      Array.for_all (fun s -> s >= -1e-9) slack)

(* Every task reachable from [i] by one edge or more, ascending. *)
let descendants d i =
  let seen = Array.make (Dag.n d) false in
  let rec visit j =
    List.iter
      (fun s ->
        if not seen.(s) then begin
          seen.(s) <- true;
          visit s
        end)
      (Dag.succs d j)
  in
  visit i;
  List.filter (fun j -> seen.(j)) (List.init (Dag.n d) Fun.id)

(* The reduction's definition, stated directly: edge (i, j) is kept
   unless j is a descendant of another successor of i. *)
let oracle_reduction d =
  let keep (i, j) =
    not (List.exists (fun s -> s <> j && List.mem j (descendants d s)) (Dag.succs d i))
  in
  List.filter keep (Dag.edges d)

(* A random DAG of 1-100 tasks whose ids are shuffled against its
   topological order, or the constraint DAG of a list schedule of one
   on 1-4 processors.  Past 63 tasks some heads lie beyond the
   reduction's 62-task bit-set window of their tail. *)
let random_reduction_case seed =
  let r = Es_util.Rng.create ~seed in
  let n = 1 + Es_util.Rng.int r 100 in
  let p = Es_util.Rng.uniform_in r 0.005 (Float.min 0.5 (8. /. float_of_int n)) in
  let sigma = Array.init n Fun.id in
  Es_util.Rng.shuffle r sigma;
  let edges = ref [] in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if Es_util.Rng.float r 1. < p then edges := (sigma.(i), sigma.(j)) :: !edges
    done
  done;
  let d =
    Dag.make ?labels:None ~weights:(Array.init n (fun _ -> Es_util.Rng.uniform_in r 0.5 3.)) ~edges:!edges
  in
  if Es_util.Rng.bool r then d
  else
    Mapping.constraint_dag
      (List_sched.schedule d ~p:(1 + Es_util.Rng.int r 4) ~priority:List_sched.Bottom_level)

let qcheck_transitive_reduction_oracle =
  QCheck.Test.make ~name:"transitive reduction = oracle, same reachability, no implied edge"
    ~count:300 QCheck.(int_bound 1_000_000)
    (fun seed ->
      let d = random_reduction_case seed in
      let r = Dag.transitive_reduction d in
      let tasks = List.init (Dag.n d) Fun.id in
      let preds_of_succs j = List.filter (fun i -> List.mem j (Dag.succs r i)) tasks in
      Dag.edges r = oracle_reduction d
      && oracle_reduction r = Dag.edges r
      && List.for_all (fun i -> descendants r i = descendants d i) tasks
      && List.for_all (fun j -> Dag.preds r j = preds_of_succs j) tasks
      && Dag.weights r = Dag.weights d)

let suite =
  ( "dag",
    [
      Alcotest.test_case "make valid" `Quick test_make_valid;
      Alcotest.test_case "rejects cycle" `Quick test_rejects_cycle;
      Alcotest.test_case "rejects self loop" `Quick test_rejects_self_loop;
      Alcotest.test_case "rejects bad weight" `Quick test_rejects_bad_weight;
      Alcotest.test_case "duplicate edges collapsed" `Quick test_duplicate_edges_collapsed;
      Alcotest.test_case "topological order" `Quick test_topological_order;
      Alcotest.test_case "critical path" `Quick test_critical_path;
      Alcotest.test_case "earliest/latest/slack" `Quick test_earliest_latest_slack;
      Alcotest.test_case "slack with loose deadline" `Quick test_slack_with_loose_deadline;
      Alcotest.test_case "transitive reduction" `Quick test_transitive_reduction;
      Alcotest.test_case "reverse" `Quick test_reverse;
      Alcotest.test_case "map_weights" `Quick test_map_weights;
      Alcotest.test_case "gen chain" `Quick test_gen_chain;
      Alcotest.test_case "gen fork" `Quick test_gen_fork;
      Alcotest.test_case "gen fork-join" `Quick test_gen_fork_join;
      Alcotest.test_case "gen layered connected" `Quick test_gen_layered_connected;
      Alcotest.test_case "gen out-tree" `Quick test_gen_out_tree;
      Alcotest.test_case "gen in-tree" `Quick test_gen_in_tree;
      Alcotest.test_case "gen lu structure" `Quick test_gen_lu_structure;
      Alcotest.test_case "gen fft structure" `Quick test_gen_fft_structure;
      Alcotest.test_case "gen stencil structure" `Quick test_gen_stencil_structure;
      QCheck_alcotest.to_alcotest qcheck_random_dag_acyclic;
      QCheck_alcotest.to_alcotest qcheck_slack_nonneg_at_cp;
    ] )

let test_gen_pipeline () =
  let d = Generators.pipeline (rng ()) ~stages:3 ~width:4 ~wlo:1. ~whi:2. in
  Alcotest.(check int) "tasks" 18 (Dag.n d);
  Alcotest.(check (list int)) "one source" [ 0 ] (Dag.sources d);
  Alcotest.(check (list int)) "one sink" [ 17 ] (Dag.sinks d);
  (* it is series-parallel by construction *)
  Alcotest.(check bool) "recognised as SP" true (Sp.of_dag d <> None)

let suite =
  ( fst suite,
    snd suite
    @ [
        Alcotest.test_case "gen pipeline" `Quick test_gen_pipeline;
        Alcotest.test_case "transitive reduction past the window" `Quick
          test_transitive_reduction_far;
        QCheck_alcotest.to_alcotest qcheck_transitive_reduction_oracle;
      ] )
