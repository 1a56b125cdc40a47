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

(* [solve] as it was before it skipped repeated segmentations: the
   interval DP at each of the 65 grid levels, then [evaluate] of the
   segmentation it gives, the first of equal energies kept. *)
let reference_ckpt_solve ~rel ~checkpoint_work ~deadline ~weights =
  let n = Array.length weights in
  if n = 0 then None
  else begin
    let prefix = Array.make (n + 1) 0. in
    for i = 0 to n - 1 do
      prefix.(i + 1) <- prefix.(i) +. weights.(i)
    done;
    let twice_tbl = Array.make_matrix (n + 1) (n + 1) None in
    for i = 0 to n - 1 do
      for j = i + 1 to n do
        twice_tbl.(i).(j) <- Rel.twice rel ~w:(prefix.(j) -. prefix.(i) +. checkpoint_work)
      done
    done;
    let best = ref None in
    for k = 0 to 64 do
      let fc = rel.Rel.fmin +. ((rel.Rel.fmax -. rel.Rel.fmin) *. float_of_int k /. 64.) in
      let dp = Array.make (n + 1) infinity and back = Array.make (n + 1) (-1) in
      dp.(0) <- 0.;
      for j = 1 to n do
        for i = 0 to j - 1 do
          match twice_tbl.(i).(j) with
          | None -> ()
          | Some (c : Rel.choice) ->
            let f = Es_util.Futil.clamp ~lo:c.floor ~hi:rel.Rel.fmax fc in
            let cost = dp.(i) +. (c.energy *. f *. f) in
            if cost < dp.(j) then begin
              dp.(j) <- cost;
              back.(j) <- i
            end
        done
      done;
      if dp.(n) < infinity then begin
        let rec rebuild j acc = if j = 0 then acc else rebuild back.(j) ((j - back.(j)) :: acc) in
        match Checkpointing.evaluate ~rel ~checkpoint_work ~deadline ~weights (rebuild n []) with
        | None -> ()
        | Some sol -> (
          match !best with
          | Some (b : Checkpointing.solution) when b.energy <= sol.energy -> ()
          | _ -> best := Some sol)
      end
    done;
    !best
  end

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let same_ckpt_solution (a : Checkpointing.solution option) (b : Checkpointing.solution option) =
  match (a, b) with
  | None, None -> true
  | Some a, Some b ->
    List.equal Int.equal a.segments b.segments
    && Array.length a.speeds = Array.length b.speeds
    && Array.for_all2 same_bits a.speeds b.speeds
    && same_bits a.energy b.energy && same_bits a.time b.time
  | Some _, None | None, Some _ -> false

(* E14's instance: ten weights in [0.5, 2.5) from seed 42, a deadline
   of 4 Σw and E14's checkpoint costs.  The 65 grid levels give one
   segmentation at every positive cost and 26 distinct ones at zero
   cost; each is evaluated once, and the answer is the per-level
   loop's, bit for bit. *)
let test_ckpt_evaluates_each_segmentation_once () =
  let module Obs = Es_obs.Obs in
  let weights = Es_util.Rng.sample_weights (Es_util.Rng.create ~seed:42) ~n:10 ~lo:0.5 ~hi:2.5 in
  let deadline = 4. *. Array.fold_left ( +. ) 0. weights in
  let evaluations = Obs.counter "checkpointing_evaluations" in
  List.iter
    (fun (checkpoint_work, distinct) ->
      Obs.reset ();
      Obs.enable ();
      let sol =
        Fun.protect ~finally:(fun () -> Obs.disable ()) @@ fun () ->
        Checkpointing.solve ~rel ~checkpoint_work ~deadline ~weights
      in
      Alcotest.(check int)
        (Printf.sprintf "evaluations at cost %g" checkpoint_work)
        distinct (Obs.value evaluations);
      Alcotest.(check bool)
        (Printf.sprintf "= the per-level loop at cost %g" checkpoint_work)
        true
        (same_ckpt_solution sol (reference_ckpt_solve ~rel ~checkpoint_work ~deadline ~weights)))
    [ (0., 26); (0.05, 1); (0.1, 1); (0.25, 1); (0.5, 1); (1., 1); (2., 1) ]

(* Random chains of 1-12 tasks, speed bounds and reliability speeds,
   checkpoint costs (zero a quarter of the time) and deadlines from
   below the all-fmax worst case to far above it. *)
let qcheck_ckpt_solve_reference =
  QCheck.Test.make ~name:"checkpointing solve = the per-level loop, bit for bit" ~count:200
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let r = Es_util.Rng.create ~seed in
      let n = 1 + Es_util.Rng.int r 12 in
      let weights = Es_util.Rng.sample_weights r ~n ~lo:0.2 ~hi:3. in
      let fmin = Es_util.Rng.uniform_in r 0.05 0.6 in
      let frel = Es_util.Rng.uniform_in r fmin 1. in
      let rel = Rel.make ~lambda0:1e-5 ~sensitivity:3. ~fmin ~fmax:1. ~frel () in
      let checkpoint_work =
        if Es_util.Rng.int r 4 = 0 then 0. else Es_util.Rng.uniform_in r 0.01 2.
      in
      let deadline =
        Es_util.Rng.uniform_in r 1.5 8. *. Array.fold_left ( +. ) checkpoint_work weights
      in
      let outcome f = match f () with v -> Ok v | exception Invalid_argument m -> Error m in
      match
        ( outcome (fun () -> Checkpointing.solve ~rel ~checkpoint_work ~deadline ~weights),
          outcome (fun () -> reference_ckpt_solve ~rel ~checkpoint_work ~deadline ~weights) )
      with
      | Ok a, Ok b -> same_ckpt_solution a b
      | Error a, Error b -> String.equal a b
      | Ok _, Error _ | Error _, Ok _ -> false)

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
      Alcotest.test_case "ckpt evaluates each segmentation once" `Quick
        test_ckpt_evaluates_each_segmentation_once;
      QCheck_alcotest.to_alcotest qcheck_ckpt_solve_reference;
      Alcotest.test_case "power critical speed" `Quick test_power_critical_speed;
      Alcotest.test_case "power energy formula" `Quick test_power_energy_formula;
      Alcotest.test_case "power aware floors at critical" `Quick
        test_power_aware_never_below_critical;
      Alcotest.test_case "power penalty grows with slack" `Quick
        test_power_penalty_grows_with_slack;
      Alcotest.test_case "power always-on constant" `Quick test_power_always_on_constant;
      Alcotest.test_case "vdd refine never worse" `Slow test_refine_never_worse;
    ] )
