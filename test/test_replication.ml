(* Tests for the replication/re-execution combination (R13). *)

let rel = Rel.make ~lambda0:1e-5 ~sensitivity:3. ~fmin:0.2 ~fmax:1.0 ~frel:0.8 ()

let weights = [| 1.; 2.; 1.5; 2.5 |]
let dmin = Array.fold_left ( +. ) 0. weights

let test_evaluate_all_single () =
  let kinds = Array.make 4 Replication.Single in
  match Replication.evaluate ~rel ~deadline:(2. *. dmin) ~weights ~kinds with
  | None -> Alcotest.fail "feasible"
  | Some sol ->
    (* with slack, singles sit at the frel floor *)
    Array.iter
      (fun f -> Alcotest.(check (float 1e-9)) "at frel" 0.8 f)
      sol.Replication.speeds

let test_replicate_no_chain_time () =
  let kinds_r = Array.make 4 Replication.Replicate in
  let kinds_s = Array.make 4 Replication.Single in
  let deadline = 2. *. dmin in
  match
    ( Replication.evaluate ~rel ~deadline ~weights ~kinds:kinds_r,
      Replication.evaluate ~rel ~deadline ~weights ~kinds:kinds_s )
  with
  | Some r, Some s ->
    (* replication halves speeds' reliability floor: big energy win *)
    Alcotest.(check bool) "replication beats single with slack" true
      (r.Replication.energy < s.Replication.energy);
    Alcotest.(check bool) "time within deadline" true
      (r.Replication.time <= deadline *. (1. +. 1e-9))
  | _ -> Alcotest.fail "both feasible"

let test_replication_dominates_reexecution () =
  (* same energy model, no time cost: exact-with-replication <= exact
     re-execution-only, at every deadline *)
  List.iter
    (fun slack ->
      let deadline = slack *. dmin in
      match
        ( Replication.solve_exact ~rel ~deadline ~weights,
          Replication.reexec_only ~rel ~deadline ~weights )
      with
      | Some a, Some b ->
        Alcotest.(check bool)
          (Printf.sprintf "slack %.1f: %.4f <= %.4f" slack a.Replication.energy
             b.Replication.energy)
          true
          (a.Replication.energy <= b.Replication.energy +. 1e-9)
      | None, None -> ()
      | _ -> Alcotest.fail "feasibility disagreement")
    [ 1.0; 1.3; 2.; 3.5 ]

let test_exact_no_worse_than_greedy () =
  List.iter
    (fun slack ->
      let deadline = slack *. dmin in
      match
        ( Replication.solve_exact ~rel ~deadline ~weights,
          Replication.solve_greedy ~rel ~deadline ~weights )
      with
      | Some e, Some g ->
        Alcotest.(check bool) "exact <= greedy" true
          (e.Replication.energy <= g.Replication.energy +. 1e-9);
        Alcotest.(check bool) "greedy close" true
          (g.Replication.energy <= e.Replication.energy *. 1.05)
      | None, None -> ()
      | _ -> Alcotest.fail "feasibility disagreement")
    [ 1.2; 2.; 3. ]

let test_kappa_slowdown_of_replicas () =
  (* in an unclamped mix, replicated tasks run 2^(-1/3) slower than
     re-executed/single ones *)
  let kinds = [| Replication.Single; Replication.Replicate |] in
  let w2 = [| 1.; 1. |] in
  (* deadline chosen so the common level lands inside (frel, fmax):
     total time 2.2599/fc = 2.5 gives fc ≈ 0.904, with neither task
     clamped *)
  match Replication.evaluate ~rel ~deadline:2.5 ~weights:w2 ~kinds with
  | None -> Alcotest.fail "feasible"
  | Some sol ->
    let ratio = sol.Replication.speeds.(1) /. sol.Replication.speeds.(0) in
    Alcotest.(check (float 1e-3)) "2^(-1/3) ratio" (2. ** (-1. /. 3.)) ratio

let test_infeasible_detected () =
  Alcotest.(check bool) "over capacity" true
    (Replication.solve_greedy ~rel ~deadline:(0.9 *. dmin) ~weights = None)

let test_time_reported_within_deadline () =
  List.iter
    (fun slack ->
      let deadline = slack *. dmin in
      match Replication.solve_exact ~rel ~deadline ~weights with
      | None -> ()
      | Some sol ->
        Alcotest.(check bool) "time <= D" true (sol.Replication.time <= deadline *. (1. +. 1e-9)))
    [ 1.0; 1.5; 2.5 ]

let test_max_n_guard () =
  let big = Array.make 15 1. in
  Alcotest.(check bool) "guard" true
    (match Replication.solve_exact ~rel ~deadline:100. ~weights:big with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_kind_names () =
  Alcotest.(check string) "single" "single" (Replication.kind_name Replication.Single);
  Alcotest.(check string) "re-execute" "re-execute" (Replication.kind_name Replication.Reexecute);
  Alcotest.(check string) "replicate" "replicate" (Replication.kind_name Replication.Replicate)

let suite =
  ( "replication",
    [
      Alcotest.test_case "all single at floor" `Quick test_evaluate_all_single;
      Alcotest.test_case "replication no chain time" `Quick test_replicate_no_chain_time;
      Alcotest.test_case "replication dominates re-execution" `Slow
        test_replication_dominates_reexecution;
      Alcotest.test_case "exact <= greedy" `Slow test_exact_no_worse_than_greedy;
      Alcotest.test_case "replica kappa slowdown" `Quick test_kappa_slowdown_of_replicas;
      Alcotest.test_case "infeasible detected" `Quick test_infeasible_detected;
      Alcotest.test_case "time within deadline" `Quick test_time_reported_within_deadline;
      Alcotest.test_case "max_n guard" `Quick test_max_n_guard;
      Alcotest.test_case "kind names" `Quick test_kind_names;
    ] )
