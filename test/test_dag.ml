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

let cmp_edge (a, b) (c, d) =
  match Int.compare a c with 0 -> Int.compare b d | k -> k

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

(* The Kahn pass the heap replaced: a [Set] of ready ids, the smallest
   popped first; [None] on a cycle.  [edges] may repeat. *)
let reference_order n edges =
  let module Q = Set.Make (Int) in
  let succs = Array.make n [] and indeg = Array.make n 0 in
  List.iter
    (fun (i, j) ->
      succs.(i) <- j :: succs.(i);
      indeg.(j) <- indeg.(j) + 1)
    (List.sort_uniq cmp_edge edges);
  let ready = ref Q.empty and order = ref [] in
  Array.iteri (fun i d -> if d = 0 then ready := Q.add i !ready) indeg;
  while not (Q.is_empty !ready) do
    let i = Q.min_elt !ready in
    ready := Q.remove i !ready;
    order := i :: !order;
    List.iter
      (fun j ->
        indeg.(j) <- indeg.(j) - 1;
        if indeg.(j) = 0 then ready := Q.add j !ready)
      succs.(i)
  done;
  if List.length !order = n then Some (Array.of_list (List.rev !order)) else None

(* Random DAGs of 1-40 tasks with ids shuffled against their
   topological order, and half the time one edge from a later task back
   to an earlier one, which closes a cycle when a path joins them.  An
   acyclic one's transitive reduction and reweighting carry its order
   over, and each must equal the reference on its own edges. *)
let qcheck_topological_order_reference =
  QCheck.Test.make ~name:"topological order = Set-based Kahn reference, cycles rejected"
    ~count:300 QCheck.(int_bound 1_000_000)
    (fun seed ->
      let r = Es_util.Rng.create ~seed in
      let n = 1 + Es_util.Rng.int r 40 in
      let sigma = Array.init n Fun.id in
      Es_util.Rng.shuffle r sigma;
      let edges = ref [] in
      for i = 0 to n - 1 do
        for j = i + 1 to n - 1 do
          if Es_util.Rng.float r 1. < 0.15 then edges := (sigma.(i), sigma.(j)) :: !edges
        done
      done;
      let edges =
        if n >= 2 && Es_util.Rng.bool r then begin
          let i = Es_util.Rng.int r (n - 1) in
          let j = i + 1 + Es_util.Rng.int r (n - 1 - i) in
          (sigma.(j), sigma.(i)) :: !edges
        end
        else !edges
      in
      let weights = Array.make n 1. in
      match (reference_order n edges, Dag.make ?labels:None ~weights ~edges) with
      | Some expected, d ->
        (* the reduced and the reweighted DAG keep the stored order,
           which must be their own Kahn order *)
        let reduced = Dag.transitive_reduction d in
        let reweighted = Dag.map_weights d (fun i w -> w *. float_of_int (i + 2)) in
        Dag.topological_order d = expected
        && Some (Dag.topological_order reduced) = reference_order n (Dag.edges reduced)
        && Dag.topological_order reweighted = expected
      | None, _ -> false
      | exception Invalid_argument msg ->
        String.equal msg "Dag: cycle detected" && reference_order n edges = None)

let test_cycle_reference () =
  let edges = [ (0, 1); (1, 2); (2, 0); (3, 0) ] in
  Alcotest.(check bool) "reference sees the cycle" true (reference_order 4 edges = None);
  Alcotest.check_raises "3-cycle" (Invalid_argument "Dag: cycle detected") (fun () ->
      ignore (Dag.make ?labels:None ~weights:(Array.make 4 1.) ~edges))

(* Words [f ()] allocates, net of the measurement's own (a no-op
   reads 12).  A minor collection before each reading of the
   allocation counter makes it count the minor heap's words too. *)
let allocated_words f =
  let measure f =
    Gc.minor ();
    let before = Gc.allocated_bytes () in
    f ();
    Gc.minor ();
    (Gc.allocated_bytes () -. before) /. float_of_int (Sys.word_size / 8)
  in
  measure f -. measure ignore

(* The Kahn pass runs once, in [make]; a topological order is a copy
   of the stored one, and [critical_path_length] folds over the stored
   order, allocating its start times (n + 1 words) and its boxed result.
   On a 300-task chain the two take 604 words, against 11,085 for a Set
   of ready ids and boxed-float folds. *)
let test_kahn_allocation () =
  let n = 300 in
  let d = Generators.chain (Es_util.Rng.create ~seed:1) ~n ~wlo:0.5 ~whi:3. in
  let durations = Dag.weights d in
  let order =
    allocated_words (fun () -> ignore (Sys.opaque_identity (Dag.topological_order d)))
  in
  let path =
    allocated_words (fun () ->
        ignore (Sys.opaque_identity (Dag.critical_path_length d ~durations)))
  in
  Alcotest.(check bool)
    (Printf.sprintf "critical path: %.0f words for %d tasks <= n + 8" path n)
    true
    (path <= float_of_int (n + 8));
  Alcotest.(check bool)
    (Printf.sprintf "%.0f words for %d tasks < 8 per task" (order +. path) n)
    true
    (order +. path < 8. *. float_of_int n)

(* [Dag.make] as it was with a hash table: edges checked (range, then
   self-loop) and collapsed through a [Hashtbl] keyed by pairs, each
   list sorted, every label formatted.  The order comes from the
   Set-based pass above, which equals the heap's. *)
type reference_dag = {
  r_weights : float array;
  r_labels : string array;
  r_succs : int list array;
  r_preds : int list array;
  r_order : int array;
}

let reference_make ?labels ~weights ~edges =
  let n = Array.length weights in
  Array.iteri
    (fun i w -> if w <= 0. then invalid_arg (Printf.sprintf "Dag.make: weight %d not positive" i))
    weights;
  let labels =
    match labels with
    | Some l ->
      if Array.length l <> n then invalid_arg "Dag.make: labels length mismatch";
      Array.copy l
    | None -> Array.init n (Printf.sprintf "T%d")
  in
  let succs = Array.make n [] and preds = Array.make n [] in
  let seen = Hashtbl.create (List.length edges) in
  List.iter
    (fun (i, j) ->
      if i < 0 || i >= n || j < 0 || j >= n then invalid_arg "Dag.make: edge out of range";
      if i = j then invalid_arg "Dag.make: self loop";
      if not (Hashtbl.mem seen (i, j)) then begin
        Hashtbl.add seen (i, j) ();
        succs.(i) <- j :: succs.(i);
        preds.(j) <- i :: preds.(j)
      end)
    edges;
  Array.iteri (fun i l -> succs.(i) <- List.sort Int.compare l) succs;
  Array.iteri (fun i l -> preds.(i) <- List.sort Int.compare l) preds;
  match reference_order n edges with
  | Some order ->
    {
      r_weights = Array.copy weights;
      r_labels = labels;
      r_succs = succs;
      r_preds = preds;
      r_order = order;
    }
  | None -> invalid_arg "Dag: cycle detected"

let reference_edges r =
  let acc = ref [] in
  for i = Array.length r.r_succs - 1 downto 0 do
    List.iter (fun j -> acc := (i, j) :: !acc) r.r_succs.(i)
  done;
  !acc

let reference_pp r =
  String.concat ""
    (List.init (Array.length r.r_succs) (fun i ->
         Printf.sprintf "%s (w=%g) -> %s\n" r.r_labels.(i) r.r_weights.(i)
           (String.concat ", " (List.map (fun j -> r.r_labels.(j)) r.r_succs.(i)))))

let raises_index f =
  match f () with
  | _ -> false
  | exception Invalid_argument m -> String.equal m "index out of bounds"

(* [d] reads as [r]: adjacency, order, edge list, labels (out-of-range
   tasks raise as an array would) and the debugging print. *)
let same_dag d r =
  let n = Array.length r.r_succs in
  Dag.n d = n
  && Array.init n (Dag.succs d) = r.r_succs
  && Array.init n (Dag.preds d) = r.r_preds
  && Dag.topological_order d = r.r_order
  && Dag.edges d = reference_edges r
  && Array.init n (Dag.label d) = r.r_labels
  && raises_index (fun () -> Dag.label d n)
  && raises_index (fun () -> Dag.label d (-1))
  && String.equal (Format.asprintf "%a" Dag.pp d) (reference_pp r)

(* Random edge lists over 1-25 tasks: forward edges of a shuffled
   order, repeated, and now and then an out-of-range end (or an
   out-of-range self-loop, which must report its range), a self-loop,
   a back edge that may close a cycle, a zero weight or labels of the
   wrong length; half the graphs are labelled. *)
let qcheck_make_reference =
  QCheck.Test.make ~name:"make = the hash-table construction: lists, order, edges, labels, errors"
    ~count:500 QCheck.(int_bound 1_000_000)
    (fun seed ->
      let r = Es_util.Rng.create ~seed in
      let n = 1 + Es_util.Rng.int r 25 in
      let sigma = Array.init n Fun.id in
      Es_util.Rng.shuffle r sigma;
      let edges = ref [] in
      for i = 0 to n - 1 do
        for j = i + 1 to n - 1 do
          if Es_util.Rng.float r 1. < 0.2 then begin
            edges := (sigma.(i), sigma.(j)) :: !edges;
            if Es_util.Rng.int r 4 = 0 then edges := (sigma.(i), sigma.(j)) :: !edges
          end
        done
      done;
      let edges = Array.of_list !edges in
      Es_util.Rng.shuffle r edges;
      let edges = Array.to_list edges in
      let odd k = Es_util.Rng.int r k = 0 in
      let edges =
        if odd 8 then
          let out = if Es_util.Rng.bool r then n else -1 in
          (if Es_util.Rng.bool r then (out, out) else (Es_util.Rng.int r n, out)) :: edges
        else edges
      in
      let edges = if odd 8 then (let i = Es_util.Rng.int r n in (i, i)) :: edges else edges in
      let edges =
        if n >= 2 && odd 4 then
          let i = Es_util.Rng.int r (n - 1) in
          (sigma.(i + 1 + Es_util.Rng.int r (n - 1 - i)), sigma.(i)) :: edges
        else edges
      in
      let weights = Array.init n (fun _ -> Es_util.Rng.uniform_in r 0.5 3.) in
      if odd 16 then weights.(Es_util.Rng.int r n) <- 0.;
      let labels =
        if Es_util.Rng.bool r then
          Some (Array.init (if odd 16 then n + 1 else n) (fun i -> Printf.sprintf "v%d" (n - i)))
        else None
      in
      let outcome f = match f () with v -> Ok v | exception Invalid_argument m -> Error m in
      match
        ( outcome (fun () -> Dag.make ?labels ~weights ~edges),
          outcome (fun () -> reference_make ?labels ~weights ~edges) )
      with
      | Ok d, Ok expected ->
        let reduced = Dag.transitive_reduction d in
        let reduced_expected =
          reference_make ~labels:expected.r_labels ~weights ~edges:(Dag.edges reduced)
        in
        same_dag d expected
        && same_dag (Dag.reverse d)
             (reference_make ~labels:expected.r_labels ~weights
                ~edges:(List.map (fun (i, j) -> (j, i)) (reference_edges expected)))
        && same_dag reduced { reduced_expected with r_order = expected.r_order }
        && Array.init n (Dag.label (Dag.map_weights d (fun _ w -> 2. *. w))) = expected.r_labels
      | Error a, Error b -> String.equal a b
      | Ok _, Error _ | Error _, Ok _ -> false)

(* A 60-task layered DAG, its 84 edges shuffled so that the adjacency
   lists need sorting: the lists, their sorts, the weights, the order
   and Kahn's arrays take 2,434 words; the hash table and a label per
   task took 6,616. *)
let test_make_allocation () =
  let r = Es_util.Rng.create ~seed:1 in
  let d = Generators.random_layered r ~layers:30 ~width:6 ~density:0.3 ~wlo:0.5 ~whi:3. in
  let n = 60 in
  let weights = Array.sub (Dag.weights d) 0 n in
  let edges = Array.of_list (List.filter (fun (a, b) -> a < n && b < n) (Dag.edges d)) in
  Es_util.Rng.shuffle r edges;
  let edges = Array.to_list edges in
  let words =
    allocated_words (fun () -> ignore (Sys.opaque_identity (Dag.make ?labels:None ~weights ~edges)))
  in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f words for %d tasks and %d edges <= 48 per task" words n
       (List.length edges))
    true
    (words <= 48. *. float_of_int n)

(* Random DAGs of 1-30 tasks, their tasks dealt into 1-4 chains that
   follow a topological order half the time (acyclic) and a random one
   otherwise (often cyclic), and now and then a chain with an
   out-of-range task or a task twice in a row: [add_chains] equals
   [make] over the DAG's edges and the chains' pairs, lists, order,
   weights and labels, or raises the same error. *)
let qcheck_add_chains_is_make =
  QCheck.Test.make ~name:"add_chains = make over edges @ chain pairs: lists, order, errors"
    ~count:500 QCheck.(int_bound 1_000_000)
    (fun seed ->
      let r = Es_util.Rng.create ~seed in
      let n = 1 + Es_util.Rng.int r 30 in
      let d = Generators.random_dag r ~n ~p:(Es_util.Rng.uniform_in r 0. 0.4) ~wlo:0.5 ~whi:3. in
      let tasks =
        if Es_util.Rng.bool r then Dag.topological_order d
        else begin
          let a = Array.init n Fun.id in
          Es_util.Rng.shuffle r a;
          a
        end
      in
      let p = 1 + Es_util.Rng.int r 4 in
      let chains = Array.make p [] in
      for k = n - 1 downto 0 do
        let c = Es_util.Rng.int r p in
        chains.(c) <- tasks.(k) :: chains.(c)
      done;
      (match Es_util.Rng.int r 16 with
      | 0 -> chains.(0) <- chains.(0) @ [ (if Es_util.Rng.bool r then n else -1) ]
      | 1 -> chains.(0) <- chains.(0) @ [ n - 1; n - 1 ]
      | _ -> ());
      let rec pairs = function a :: (b :: _ as rest) -> (a, b) :: pairs rest | [ _ ] | [] -> [] in
      let edges = Dag.edges d @ List.concat_map pairs (Array.to_list chains) in
      let outcome f = match f () with v -> Ok v | exception Invalid_argument m -> Error m in
      match
        ( outcome (fun () -> Dag.add_chains d chains),
          outcome (fun () -> Dag.make ?labels:None ~weights:(Dag.weights d) ~edges) )
      with
      | Ok a, Ok b ->
        Array.init n (Dag.succs a) = Array.init n (Dag.succs b)
        && Array.init n (Dag.preds a) = Array.init n (Dag.preds b)
        && Dag.topological_order a = Dag.topological_order b
        && Dag.weights a = Dag.weights b
        && Array.init n (Dag.label a) = Array.init n (Dag.label b)
      | Error a, Error b -> String.equal a b
      | Ok _, Error _ | Error _, Ok _ -> false)

let suite =
  ( fst suite,
    snd suite
    @ [
        Alcotest.test_case "gen pipeline" `Quick test_gen_pipeline;
        Alcotest.test_case "transitive reduction past the window" `Quick
          test_transitive_reduction_far;
        QCheck_alcotest.to_alcotest qcheck_transitive_reduction_oracle;
        QCheck_alcotest.to_alcotest qcheck_topological_order_reference;
        Alcotest.test_case "topological order rejects a 3-cycle" `Quick test_cycle_reference;
        Alcotest.test_case "topological order and critical path allocate only their arrays" `Quick
          test_kahn_allocation;
        QCheck_alcotest.to_alcotest qcheck_make_reference;
        Alcotest.test_case "make allocates <= 48 words per task" `Quick test_make_allocation;
        QCheck_alcotest.to_alcotest qcheck_add_chains_is_make;
      ] )
