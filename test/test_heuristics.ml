(* Tests for the TRI-CRIT heuristic families (R10): feasibility across
   DAG classes, best-of dominance, complementarity, and agreement with
   exact solvers on the structures where those exist. *)

let rel = Rel.make ~lambda0:1e-5 ~sensitivity:3. ~fmin:0.2 ~fmax:1.0 ~frel:0.8 ()
let model = Speed.continuous ~fmin:0.2 ~fmax:1.0

let instances ~seed =
  let rng = Es_util.Rng.create ~seed in
  [
    ("chain", Mapping.single_processor (Generators.chain rng ~n:8 ~wlo:0.5 ~whi:3.));
    ("fork", Mapping.one_task_per_proc (Generators.fork rng ~n:6 ~wlo:0.5 ~whi:3.));
    ( "layered",
      List_sched.schedule
        (Generators.random_layered rng ~layers:4 ~width:3 ~density:0.5 ~wlo:1. ~whi:3.)
        ~p:3 ~priority:List_sched.Bottom_level );
    ( "stencil",
      List_sched.schedule (Generators.stencil ~rows:3 ~cols:3) ~p:3
        ~priority:List_sched.Bottom_level );
  ]

let dmin_of m = List_sched.makespan_at_speed m ~f:1.

let test_all_heuristics_validate () =
  List.iter
    (fun (name, m) ->
      let dmin = dmin_of m in
      List.iter
        (fun slack ->
          let deadline = slack *. dmin in
          List.iter
            (fun (hname, h) ->
              match h ~rel ~deadline m with
              | None -> ()
              | Some (sol : Heuristics.solution) ->
                Alcotest.(check bool)
                  (Printf.sprintf "%s/%s slack %.1f valid" name hname slack)
                  true
                  (Validate.is_feasible ~deadline ~rel ~model sol.schedule))
            [
              ("baseline", Heuristics.baseline);
              ("chain-oriented", Heuristics.chain_oriented);
              ("parallel-oriented", Heuristics.parallel_oriented);
            ])
        [ 1.1; 1.8; 3. ])
    (instances ~seed:201)

let test_best_of_dominates_components () =
  List.iter
    (fun (name, m) ->
      let dmin = dmin_of m in
      let deadline = 2.2 *. dmin in
      let energies =
        List.filter_map
          (fun h -> Option.map (fun (s : Heuristics.solution) -> s.energy) (h ~rel ~deadline m))
          [ Heuristics.baseline; Heuristics.chain_oriented; Heuristics.parallel_oriented ]
      in
      match Heuristics.best_of ~rel ~deadline m with
      | None -> Alcotest.failf "%s: best_of infeasible" name
      | Some (best, _) -> (
        List.iter
          (fun e ->
            Alcotest.(check bool)
              (Printf.sprintf "%s: best %.4f <= %.4f" name best.Heuristics.energy e)
              true
              (best.Heuristics.energy <= e +. 1e-9))
          energies;
        (* polished: its subset at full precision does no better, so no
           loose-tolerance probe stands in for a full-precision answer *)
        match Heuristics.evaluate_subset ~rel ~deadline m ~subset:best.reexecuted with
        | None -> Alcotest.failf "%s: best_of's subset infeasible" name
        | Some full ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: best %.12g <= full precision %.12g" name best.energy full.energy)
            true
            (best.energy <= full.energy +. 1e-9)))
    (instances ~seed:202)

let test_reexecution_engages_with_slack () =
  (* on a generously slack chain, the chain-oriented family must use
     re-execution and beat the baseline strictly *)
  let rng = Es_util.Rng.create ~seed:203 in
  let m = Mapping.single_processor (Generators.chain rng ~n:8 ~wlo:0.5 ~whi:3.) in
  let deadline = 4. *. dmin_of m in
  match (Heuristics.baseline ~rel ~deadline m, Heuristics.chain_oriented ~rel ~deadline m) with
  | Some base, Some chain ->
    Alcotest.(check bool) "re-executions used" true
      (Array.exists Fun.id chain.Heuristics.reexecuted);
    Alcotest.(check bool) "strictly better than baseline" true
      (chain.Heuristics.energy < base.Heuristics.energy -. 1e-9)
  | _ -> Alcotest.fail "both feasible"

let test_parallel_oriented_on_fork_near_optimal () =
  let rng = Es_util.Rng.create ~seed:204 in
  let dag = Generators.fork rng ~n:6 ~wlo:0.5 ~whi:3. in
  let m = Mapping.one_task_per_proc dag in
  let deadline = 2. *. dmin_of m in
  match (Tricrit_fork.solve ~rel ~deadline dag, Heuristics.parallel_oriented ~rel ~deadline m) with
  | Some poly, Some par ->
    Alcotest.(check bool)
      (Printf.sprintf "within 10%% of fork optimum (%.4f vs %.4f)"
         par.Heuristics.energy poly.Tricrit_fork.energy)
      true
      (par.Heuristics.energy <= poly.Tricrit_fork.energy *. 1.10)
  | _ -> Alcotest.fail "both feasible"

let test_chain_oriented_on_chain_near_exact () =
  let rng = Es_util.Rng.create ~seed:205 in
  let m = Mapping.single_processor (Generators.chain rng ~n:9 ~wlo:0.5 ~whi:3.) in
  let deadline = 3. *. dmin_of m in
  match (Tricrit_chain.solve_exact ~rel ~deadline m, Heuristics.chain_oriented ~rel ~deadline m) with
  | Some exact, Some heur ->
    Alcotest.(check bool)
      (Printf.sprintf "within 5%% of chain optimum (%.4f vs %.4f)"
         heur.Heuristics.energy exact.Tricrit_chain.energy)
      true
      (heur.Heuristics.energy <= exact.Tricrit_chain.energy *. 1.05)
  | _ -> Alcotest.fail "both feasible"

let test_above_lower_bound () =
  List.iter
    (fun (name, m) ->
      let deadline = 2. *. dmin_of m in
      let lb = Lower_bounds.tricrit ~rel ~deadline m in
      match Heuristics.best_of ~rel ~deadline m with
      | None -> Alcotest.failf "%s infeasible" name
      | Some (sol, _) ->
        Alcotest.(check bool)
          (Printf.sprintf "%s: %.4f >= bound %.4f" name sol.Heuristics.energy lb)
          true
          (sol.Heuristics.energy >= lb *. (1. -. 1e-6)))
    (instances ~seed:206)

let test_infeasible_deadline_propagates () =
  let rng = Es_util.Rng.create ~seed:207 in
  let m = Mapping.single_processor (Generators.chain rng ~n:5 ~wlo:1. ~whi:2.) in
  let deadline = 0.5 *. dmin_of m in
  Alcotest.(check bool) "baseline none" true (Heuristics.baseline ~rel ~deadline m = None);
  Alcotest.(check bool) "best_of none" true (Heuristics.best_of ~rel ~deadline m = None)

let test_evaluate_subset_respects_floors () =
  let rng = Es_util.Rng.create ~seed:208 in
  let dag = Generators.chain rng ~n:5 ~wlo:1. ~whi:2. in
  let m = Mapping.single_processor dag in
  let deadline = 3. *. dmin_of m in
  let subset = Array.init 5 (fun i -> i mod 2 = 0) in
  match Heuristics.evaluate_subset ~rel ~deadline m ~subset with
  | None -> Alcotest.fail "feasible"
  | Some sol ->
    (* non-re-executed tasks must run at >= frel *)
    Array.iteri
      (fun i re ->
        if not re then begin
          match Schedule.executions sol.Heuristics.schedule i with
          | [ [ p ] ] ->
            Alcotest.(check bool) "floor respected" true (p.Schedule.speed >= 0.8 -. 1e-6)
          | _ -> Alcotest.fail "single exec expected"
        end)
      subset

let test_lower_bound_components () =
  let rng = Es_util.Rng.create ~seed:209 in
  let m = Mapping.single_processor (Generators.chain rng ~n:5 ~wlo:1. ~whi:2.) in
  let deadline = 2. *. dmin_of m in
  let r = Lower_bounds.relaxation ~rel ~deadline m in
  let p = Lower_bounds.per_task ~rel m in
  Alcotest.(check (float 1e-12)) "tricrit = max" (Float.max r p)
    (Lower_bounds.tricrit ~rel ~deadline m)

let suite =
  ( "heuristics",
    [
      Alcotest.test_case "all families validate" `Slow test_all_heuristics_validate;
      Alcotest.test_case "best-of dominates" `Slow test_best_of_dominates_components;
      Alcotest.test_case "re-execution engages" `Quick test_reexecution_engages_with_slack;
      Alcotest.test_case "family B near fork optimum" `Quick
        test_parallel_oriented_on_fork_near_optimal;
      Alcotest.test_case "family A near chain optimum" `Slow
        test_chain_oriented_on_chain_near_exact;
      Alcotest.test_case "above lower bound" `Slow test_above_lower_bound;
      Alcotest.test_case "infeasible propagates" `Quick test_infeasible_deadline_propagates;
      Alcotest.test_case "subset floors respected" `Quick test_evaluate_subset_respects_floors;
      Alcotest.test_case "lower bound components" `Quick test_lower_bound_components;
    ] )

let test_local_search_never_worse () =
  List.iter
    (fun (name, m) ->
      let deadline = 2.2 *. dmin_of m in
      match Heuristics.best_of ~rel ~deadline m with
      | None -> ()
      | Some (sol, _) ->
        let refined =
          Heuristics.local_search ~rel ~deadline m sol
        in
        Alcotest.(check bool)
          (Printf.sprintf "%s: refined %.4f <= %.4f" name refined.Heuristics.energy
             sol.Heuristics.energy)
          true
          (refined.Heuristics.energy <= sol.Heuristics.energy +. 1e-9);
        Alcotest.(check bool) (name ^ ": refined validates") true
          (Validate.is_feasible ~deadline ~rel ~model refined.Heuristics.schedule))
    (instances ~seed:210)

let test_best_of_refined_consistent () =
  let rng = Es_util.Rng.create ~seed:211 in
  let m =
    List_sched.schedule
      (Generators.random_layered rng ~layers:4 ~width:3 ~density:0.5 ~wlo:1. ~whi:3.)
      ~p:3 ~priority:List_sched.Bottom_level
  in
  let deadline = 2.5 *. dmin_of m in
  match (Heuristics.best_of ~rel ~deadline m, Heuristics.best_of_refined ~rel ~deadline m) with
  | Some (plain, _), Some (refined, _) ->
    Alcotest.(check bool) "refined <= plain" true
      (refined.Heuristics.energy <= plain.Heuristics.energy +. 1e-9)
  | None, None -> ()
  | _ -> Alcotest.fail "feasibility disagreement"

let suite =
  ( fst suite,
    snd suite
    @ [
        Alcotest.test_case "local search never worse" `Slow test_local_search_never_worse;
        Alcotest.test_case "best_of_refined consistent" `Slow test_best_of_refined_consistent;
      ] )
