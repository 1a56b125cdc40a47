(* Tests for the extension modules: exact general-DAG TRI-CRIT, the
   chain knapsack DP, checkpointing, the static-power ablation and the
   VDD split refinement. *)

let rel = Rel.make ~lambda0:1e-5 ~sensitivity:3. ~fmin:0.2 ~fmax:1.0 ~frel:0.8 ()
let model = Speed.continuous ~fmin:0.2 ~fmax:1.0

(* --- Tricrit_exact -------------------------------------------------- *)

let small_dag_mapping ~seed =
  let rng = Es_util.Rng.create ~seed in
  let dag = Generators.random_layered rng ~layers:3 ~width:3 ~density:0.5 ~wlo:1. ~whi:3. in
  List_sched.schedule dag ~p:2 ~priority:List_sched.Bottom_level

let test_exact_below_heuristics () =
  List.iter
    (fun seed ->
      let m = small_dag_mapping ~seed in
      let dmin = List_sched.makespan_at_speed m ~f:1. in
      List.iter
        (fun slack ->
          let deadline = slack *. dmin in
          match
            (Tricrit_exact.solve ~rel ~deadline m, Heuristics.best_of ~rel ~deadline m)
          with
          | Some exact, Some (heur, _) ->
            Alcotest.(check bool)
              (Printf.sprintf "exact %.4f <= heur %.4f (slack %.1f)"
                 exact.Heuristics.energy heur.Heuristics.energy slack)
              true
              (exact.Heuristics.energy <= heur.Heuristics.energy *. (1. +. 1e-6))
          | None, None -> ()
          | _ -> Alcotest.fail "feasibility disagreement")
        [ 1.3; 2.2 ])
    [ 501; 502 ]

let test_exact_matches_chain_exact () =
  let rng = Es_util.Rng.create ~seed:503 in
  let dag = Generators.chain rng ~n:7 ~wlo:0.5 ~whi:3. in
  let m = Mapping.single_processor dag in
  let deadline = 2.5 *. Dag.total_weight dag in
  match
    (Tricrit_exact.solve ~rel ~deadline m, Tricrit_chain.solve_exact ~rel ~deadline m)
  with
  | Some g, Some c ->
    (* same combinatorial optimum; the waterfilling and the barrier
       solver must agree closely *)
    Alcotest.(check bool)
      (Printf.sprintf "general %.5f ~ chain %.5f" g.Heuristics.energy
         c.Tricrit_chain.energy)
      true
      (Float.abs (g.Heuristics.energy -. c.Tricrit_chain.energy)
      < 1e-3 *. c.Tricrit_chain.energy)
  | _ -> Alcotest.fail "both feasible"

let test_exact_schedule_validates () =
  let m = small_dag_mapping ~seed:504 in
  let dmin = List_sched.makespan_at_speed m ~f:1. in
  let deadline = 2.5 *. dmin in
  match Tricrit_exact.solve ~rel ~deadline m with
  | None -> Alcotest.fail "feasible"
  | Some sol ->
    Alcotest.(check bool) "validator accepts" true
      (Validate.is_feasible ~deadline ~rel ~model sol.Heuristics.schedule)

let test_candidates_prune () =
  let rng = Es_util.Rng.create ~seed:505 in
  let dag = Generators.chain rng ~n:6 ~wlo:0.5 ~whi:3. in
  let cand = Tricrit_exact.candidates ~rel dag in
  (* with these parameters re-execution is always potentially useful *)
  Alcotest.(check bool) "candidates exist" true (Array.exists Fun.id cand);
  (* a much higher fault rate pushes floors above frel/√2: no candidates *)
  let hot = Rel.make ~lambda0:0.2 ~sensitivity:3. ~fmin:0.2 ~fmax:1.0 ~frel:0.8 () in
  let cand_hot = Tricrit_exact.candidates ~rel:hot dag in
  Alcotest.(check bool) "hot rate prunes more" true
    (Array.to_list cand_hot
     |> List.filter Fun.id |> List.length
     <= (Array.to_list cand |> List.filter Fun.id |> List.length))

let test_max_n_guard () =
  let rng = Es_util.Rng.create ~seed:506 in
  let dag = Generators.chain rng ~n:20 ~wlo:1. ~whi:2. in
  let m = Mapping.single_processor dag in
  Alcotest.(check bool) "guard" true
    (match Tricrit_exact.solve ~rel ~deadline:1000. m with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* --- checkpointing -------------------------------------------------- *)

let weights = [| 1.; 2.; 1.5; 2.5; 1. |]
let dmin = Array.fold_left ( +. ) 0. weights

let test_ckpt_evaluate_partition_checked () =
  Alcotest.(check bool) "bad partition" true
    (Checkpointing.evaluate ~rel ~checkpoint_work:0.1 ~deadline:100. ~weights [ 2; 2 ]
    = None)

let test_ckpt_single_segment_floor () =
  (* one big segment: floor for the whole chain's work *)
  match Checkpointing.evaluate ~rel ~checkpoint_work:0. ~deadline:1000. ~weights [ 5 ] with
  | None -> Alcotest.fail "feasible"
  | Some sol ->
    Alcotest.(check int) "one speed" 1 (Array.length sol.Checkpointing.speeds);
    (match Rel.min_reexec_speed rel ~w:dmin with
    | None -> Alcotest.fail "segment floor exists"
    | Some flo -> Alcotest.(check (float 1e-9)) "at its floor" flo sol.Checkpointing.speeds.(0))

let test_ckpt_zero_cost_prefers_fine_segments () =
  (* without checkpoint cost, finer segmentation is never worse: the
     solver should find something at least as good as per-task *)
  let deadline = 3. *. dmin in
  match
    ( Checkpointing.solve ~rel ~checkpoint_work:0. ~deadline ~weights,
      Checkpointing.reexec_equivalent ~rel ~deadline ~weights )
  with
  | Some best, Some per_task ->
    Alcotest.(check bool)
      (Printf.sprintf "solver %.5f <= per-task %.5f" best.Checkpointing.energy
         per_task.Checkpointing.energy)
      true
      (best.Checkpointing.energy <= per_task.Checkpointing.energy *. (1. +. 1e-6))
  | _ -> Alcotest.fail "both feasible"

let test_ckpt_cost_coarsens_segments () =
  (* rising checkpoint cost must not increase the number of segments
     chosen, and energy grows with the cost *)
  let deadline = 3. *. dmin in
  let solve c =
    Checkpointing.solve ~rel ~checkpoint_work:c ~deadline ~weights
  in
  match (solve 0.05, solve 1.5) with
  | Some cheap, Some pricey ->
    Alcotest.(check bool) "energy grows with cost" true
      (pricey.Checkpointing.energy >= cheap.Checkpointing.energy -. 1e-9);
    Alcotest.(check bool) "coarser segmentation" true
      (List.length pricey.Checkpointing.segments
      <= List.length cheap.Checkpointing.segments)
  | _ -> Alcotest.fail "both feasible"

let test_ckpt_time_within_deadline () =
  List.iter
    (fun slack ->
      let deadline = slack *. dmin in
      match
        Checkpointing.solve ~rel ~checkpoint_work:0.2 ~deadline ~weights
      with
      | None -> ()
      | Some sol ->
        Alcotest.(check bool) "time <= D" true
          (sol.Checkpointing.time <= deadline *. (1. +. 1e-9)))
    [ 2.2; 3.; 5. ]

let test_ckpt_infeasible () =
  (* worst case needs at least 2·Σw/fmax *)
  Alcotest.(check bool) "too tight" true
    (Checkpointing.solve ~rel ~checkpoint_work:0.1
       ~deadline:(1.5 *. dmin) ~weights
    = None)

(* --- static power --------------------------------------------------- *)

let test_power_critical_speed () =
  Alcotest.(check (float 1e-12)) "crit of 2f³" 1. (Power.critical_speed ~static:2.);
  Alcotest.(check (float 1e-9)) "crit of 0.25" 0.5 (Power.critical_speed ~static:0.25)

let test_power_energy_formula () =
  Alcotest.(check (float 1e-12)) "E(w=2, f=0.5, s=0.1)"
    (2. *. (0.25 +. 0.2)) (Power.energy ~static:0.1 ~w:2. ~f:0.5)

let test_power_aware_never_below_critical () =
  let weights = [| 1.; 2.; 3. |] in
  match Power.chain_aware ~static:0.25 ~weights ~deadline:1000. ~fmin:0.01 ~fmax:1. with
  | None -> Alcotest.fail "feasible"
  | Some r ->
    Array.iter
      (fun f ->
        Alcotest.(check (float 1e-9)) "at critical speed" 0.5 f)
      r.Power.speeds

let test_power_penalty_grows_with_slack () =
  let weights = [| 1.; 2.; 3. |] in
  let penalties =
    List.filter_map
      (fun slack ->
        Power.ablation_penalty ~static:0.25 ~weights ~deadline:(slack *. 6.)
          ~fmin:0.01 ~fmax:1.)
      [ 1.1; 2.; 4.; 10. ]
  in
  let rec non_decreasing = function
    | a :: (b :: _ as rest) -> b >= a -. 1e-9 && non_decreasing rest
    | _ -> true
  in
  Alcotest.(check int) "all feasible" 4 (List.length penalties);
  Alcotest.(check bool) "penalty grows" true (non_decreasing penalties);
  match penalties with
  | [ tight; _; _; loose ] ->
    Alcotest.(check bool) "harmless when tight" true (tight < 1.15);
    Alcotest.(check bool) "severe when loose" true (loose > 1.5)
  | _ -> Alcotest.fail "expected four penalties"

let test_power_always_on_constant () =
  (* the paper's regime: static part independent of the schedule *)
  let e1 = Power.always_on_energy ~static:0.3 ~p:4 ~deadline:10. ~dynamic:5. in
  let e2 = Power.always_on_energy ~static:0.3 ~p:4 ~deadline:10. ~dynamic:7. in
  Alcotest.(check (float 1e-12)) "difference is dynamic only" 2. (e2 -. e1)

(* --- vdd split refinement ------------------------------------------- *)

let test_refine_never_worse () =
  let rng = Es_util.Rng.create ~seed:521 in
  let dag = Generators.chain rng ~n:5 ~wlo:0.5 ~whi:2. in
  let m = Mapping.single_processor dag in
  let levels = [| 0.2; 0.4; 0.6; 0.8; 1.0 |] in
  let deadline = 3. *. Dag.total_weight dag in
  match Tricrit_vdd.solve_heuristic ~rel ~deadline ~levels m with
  | None -> Alcotest.fail "feasible"
  | Some sol ->
    let refined = Tricrit_vdd.refine_splits ~rel ~deadline ~levels m sol in
    Alcotest.(check bool)
      (Printf.sprintf "refined %.5f <= %.5f" refined.Tricrit_vdd.energy
         sol.Tricrit_vdd.energy)
      true
      (refined.Tricrit_vdd.energy <= sol.Tricrit_vdd.energy +. 1e-12);
    Alcotest.(check bool) "still feasible" true
      (Validate.is_feasible ~deadline ~rel ~model:(Speed.vdd_hopping levels)
         refined.Tricrit_vdd.schedule)

let suite =
  ( "extensions",
    [
      Alcotest.test_case "exact <= heuristics" `Slow test_exact_below_heuristics;
      Alcotest.test_case "exact general = exact chain" `Slow test_exact_matches_chain_exact;
      Alcotest.test_case "exact validates" `Slow test_exact_schedule_validates;
      Alcotest.test_case "candidate prune" `Quick test_candidates_prune;
      Alcotest.test_case "exact max_n guard" `Quick test_max_n_guard;
      Alcotest.test_case "ckpt partition checked" `Quick test_ckpt_evaluate_partition_checked;
      Alcotest.test_case "ckpt single segment floor" `Quick test_ckpt_single_segment_floor;
      Alcotest.test_case "ckpt zero cost fine segments" `Quick
        test_ckpt_zero_cost_prefers_fine_segments;
      Alcotest.test_case "ckpt cost coarsens" `Quick test_ckpt_cost_coarsens_segments;
      Alcotest.test_case "ckpt time within deadline" `Quick test_ckpt_time_within_deadline;
      Alcotest.test_case "ckpt infeasible" `Quick test_ckpt_infeasible;
      Alcotest.test_case "power critical speed" `Quick test_power_critical_speed;
      Alcotest.test_case "power energy formula" `Quick test_power_energy_formula;
      Alcotest.test_case "power aware floors at critical" `Quick
        test_power_aware_never_below_critical;
      Alcotest.test_case "power penalty grows with slack" `Quick
        test_power_penalty_grows_with_slack;
      Alcotest.test_case "power always-on constant" `Quick test_power_always_on_constant;
      Alcotest.test_case "vdd refine never worse" `Slow test_refine_never_worse;
    ] )
