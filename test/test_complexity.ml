(* Tests for the complexity gadgets (R5/R7): the 2-PARTITION reduction
   must answer exactly like direct enumeration, and the loose-deadline
   chain must match its knapsack view. *)

let test_reduction_structure () =
  let r = Complexity.of_two_partition [| 3; 1; 2 |] in
  Alcotest.(check (float 1e-12)) "deadline 3S/4" 4.5 r.Complexity.deadline;
  Alcotest.(check (float 1e-12)) "threshold 5S/2" 15. r.Complexity.energy_threshold;
  Alcotest.(check int) "chain length" 3 (Dag.n (Mapping.dag r.Complexity.mapping))

let test_reduction_rejects_bad_input () =
  Alcotest.(check bool) "empty" true
    (match Complexity.of_two_partition [||] with
    | exception Invalid_argument _ -> true
    | _ -> false);
  Alcotest.(check bool) "non-positive" true
    (match Complexity.of_two_partition [| 1; 0 |] with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_yes_instances () =
  List.iter
    (fun items ->
      Alcotest.(check bool)
        (Printf.sprintf "yes: %s" (String.concat "," (List.map string_of_int (Array.to_list items))))
        true
        (Complexity.decide_two_partition items))
    [ [| 1; 1 |]; [| 3; 1; 2 |]; [| 2; 2; 2; 2 |]; [| 5; 3; 2; 4 |]; [| 7; 3; 2; 2 |] ]

let test_no_instances () =
  List.iter
    (fun items ->
      Alcotest.(check bool)
        (Printf.sprintf "no: %s" (String.concat "," (List.map string_of_int (Array.to_list items))))
        false
        (Complexity.decide_two_partition items))
    [ [| 1; 2 |]; [| 1; 1; 1 |]; [| 5; 1; 1 |]; [| 8; 3; 3 |] ]

let qcheck_reduction_matches_brute_force =
  QCheck.Test.make ~name:"reduction decides exactly 2-PARTITION" ~count:60
    QCheck.(list_of_size Gen.(2 -- 8) (int_range 1 12))
    (fun items ->
      let a = Array.of_list items in
      Complexity.decide_two_partition a = Complexity.two_partition_brute_force a)

let rel = Rel.make ~lambda0:1e-5 ~sensitivity:3. ~fmin:0.05 ~fmax:1.0 ~frel:0.8 ()

let test_knapsack_view_positive_savings () =
  let weights = [| 1.; 2.; 3. |] in
  match Complexity.knapsack_view ~rel ~deadline:100. ~weights with
  | None -> Alcotest.fail "floors exist"
  | Some k ->
    Array.iter
      (fun s -> Alcotest.(check bool) "saving > 0" true (s > 0.))
      k.Complexity.savings;
    Array.iter (fun c -> Alcotest.(check bool) "cost > 0" true (c > 0.)) k.Complexity.costs

let test_knapsack_matches_chain_exact_loose_regime () =
  (* The knapsack optimum is a feasible chain schedule (every floor
     binds), so the exact solver can only do at least as well; and when
     the deadline is loose enough for the knapsack to select every
     task, the two coincide exactly. *)
  let weights = [| 1.; 1.5; 2.; 2.5 |] in
  let dag =
    Dag.make ?labels:None ~weights
      ~edges:(List.init (Array.length weights - 1) (fun i -> (i, i + 1)))
  in
  let m = Mapping.single_processor dag in
  let frel = 0.8 in
  let base = Array.fold_left (fun acc w -> acc +. (w *. frel *. frel)) 0. weights in
  List.iter
    (fun deadline ->
      match
        ( Complexity.knapsack_view ~rel ~deadline ~weights,
          Tricrit_chain.solve_exact ~rel ~deadline m )
      with
      | Some k, Some sol ->
        let set, best_saving = Complexity.knapsack_optimal k in
        let expected = base -. best_saving in
        Alcotest.(check bool)
          (Printf.sprintf "D=%.1f: exact %.5f <= knapsack %.5f" deadline
             sol.Tricrit_chain.energy expected)
          true
          (sol.Tricrit_chain.energy <= expected *. (1. +. 1e-6));
        if Array.for_all Fun.id set then
          Alcotest.(check bool) "loose regime: exact coincidence" true
            (Float.abs (expected -. sol.Tricrit_chain.energy) < 1e-6 *. expected)
      | _ -> Alcotest.fail "both must exist")
    [ 14.; 20.; 50.; 200. ]

let test_knapsack_budget_counts () =
  let weights = [| 4. |] in
  match Complexity.knapsack_view ~rel ~deadline:10. ~weights with
  | None -> Alcotest.fail "floors exist"
  | Some k ->
    Alcotest.(check (float 1e-9)) "budget = D - w/frel" (10. -. (4. /. 0.8)) k.Complexity.budget

let test_knapsack_optimal_respects_budget () =
  let k =
    { Complexity.savings = [| 5.; 4.; 3. |]; costs = [| 2.; 2.; 2. |]; budget = 4. }
  in
  let set, saving = Complexity.knapsack_optimal k in
  Alcotest.(check (float 1e-12)) "picks the two best" 9. saving;
  Alcotest.(check bool) "first two" true (set.(0) && set.(1) && not set.(2))

let suite =
  ( "complexity",
    [
      Alcotest.test_case "reduction structure" `Quick test_reduction_structure;
      Alcotest.test_case "reduction input validation" `Quick test_reduction_rejects_bad_input;
      Alcotest.test_case "yes instances" `Quick test_yes_instances;
      Alcotest.test_case "no instances" `Quick test_no_instances;
      QCheck_alcotest.to_alcotest qcheck_reduction_matches_brute_force;
      Alcotest.test_case "knapsack view savings" `Quick test_knapsack_view_positive_savings;
      Alcotest.test_case "knapsack = chain exact (loose)" `Slow
        test_knapsack_matches_chain_exact_loose_regime;
      Alcotest.test_case "knapsack budget" `Quick test_knapsack_budget_counts;
      Alcotest.test_case "knapsack optimal" `Quick test_knapsack_optimal_respects_budget;
    ] )
