(* Tests for the convex-hull view of VDD-HOPPING (the hull reference
   of Es_check.Brute against the LP and the time-matching emulation),
   the realised-trace simulator, the Cholesky generator, and
   cross-solver property tests. *)

module Brute = Es_check.Brute

let rel = Rel.make ~lambda0:1e-5 ~sensitivity:3. ~fmin:0.2 ~fmax:1.0 ~frel:0.8 ()
let levels = [| 0.2; 0.4; 0.6; 0.8; 1.0 |]

(* --- the hull reference and the time-matching emulation ------------- *)

let test_hull_at_level_points () =
  (* g(1/f_k) = f_k² exactly at every level *)
  Array.iter
    (fun f ->
      Alcotest.(check (option (float 1e-9)))
        (Printf.sprintf "g(1/%g)" f)
        (Some (f *. f))
        (Brute.energy_per_work ~levels ~u:(1. /. f)))
    levels

let test_hull_between_levels () =
  (* between levels, g is the chord: strictly above the continuous
     curve u⁻², strictly below the worse of the two endpoints *)
  let u = 0.5 *. ((1. /. 0.8) +. (1. /. 0.6)) in
  match Brute.energy_per_work ~levels ~u with
  | None -> Alcotest.fail "u is within the level range"
  | Some g ->
    Alcotest.(check bool) "above continuous curve" true (g > (1. /. u) ** 2.);
    Alcotest.(check bool) "below slow endpoint" true (g < 0.8 *. 0.8)

let test_hull_too_fast_infeasible () =
  Alcotest.(check bool) "u < 1/fmax" true (Brute.energy_per_work ~levels ~u:0.5 = None)

let test_hull_slow_saturates () =
  (* slower than 1/fmin: cost stays at the fmin point *)
  Alcotest.(check (option (float 1e-9))) "saturated" (Some (0.2 *. 0.2))
    (Brute.energy_per_work ~levels ~u:100.)

let test_hull_chain_matches_lp () =
  List.iter
    (fun seed ->
      let rng = Es_util.Rng.create ~seed in
      let dag = Generators.chain rng ~n:6 ~wlo:0.5 ~whi:2.5 in
      let m = Mapping.single_processor dag in
      let w = Dag.total_weight dag in
      List.iter
        (fun slack ->
          let deadline = slack *. w in
          match
            ( Brute.vdd_chain_optimum ~levels ~weights:(Dag.weights dag) ~deadline,
              Bicrit_vdd.energy ~deadline ~levels m )
          with
          | Some closed, Some lp ->
            Alcotest.(check bool)
              (Printf.sprintf "closed %.6f = LP %.6f (slack %.2f)" closed lp slack)
              true
              (Float.abs (closed -. lp) < 1e-6 *. closed)
          | None, None -> ()
          | _ -> Alcotest.fail "feasibility disagreement")
        [ 1.05; 1.33; 1.8; 2.6; 6. ])
    [ 601; 602 ]

(* On a single-processor chain every task runs at the common speed
   max(fmin, W/D); its time-matching mix is the hull's optimum. *)
let chain_schedule ~deadline m =
  let dag = Mapping.dag m in
  let f = Float.max levels.(0) (Dag.total_weight dag /. deadline) in
  Bicrit_vdd.emulate_continuous ~levels ~speeds:(Array.make (Dag.n dag) f) m

let test_hull_chain_schedule_feasible () =
  let rng = Es_util.Rng.create ~seed:603 in
  let dag = Generators.chain rng ~n:5 ~wlo:0.5 ~whi:2. in
  let m = Mapping.single_processor dag in
  let deadline = 1.5 *. Dag.total_weight dag in
  match chain_schedule ~deadline m with
  | None -> Alcotest.fail "feasible"
  | Some sched ->
    Alcotest.(check bool) "validator accepts" true
      (Validate.is_feasible ~deadline ~model:(Speed.vdd_hopping levels) sched);
    (* energy matches the closed form *)
    (match Brute.vdd_chain_optimum ~levels ~weights:(Dag.weights dag) ~deadline with
    | Some closed ->
      Alcotest.(check bool) "energy matches closed form" true
        (Float.abs (Schedule.energy sched -. closed) < 1e-6 *. closed)
    | None -> Alcotest.fail "closed form exists")

let test_hull_bracket_consecutive () =
  (* 1/0.8 = 1.25 <= 1.4 <= 1/0.6 ≈ 1.67: the mix uses exactly the
     two consecutive levels around speed 1/1.4 *)
  let dag = Dag.make ?labels:None ~weights:[| 1. |] ~edges:[] in
  match chain_schedule ~deadline:1.4 (Mapping.single_processor dag) with
  | None -> Alcotest.fail "bracket exists"
  | Some sched ->
    Alcotest.(check (list (float 1e-9))) "levels" [ 0.6; 0.8 ]
      (List.concat_map
         (List.map (fun (p : Schedule.part) -> p.speed))
         (Schedule.executions sched 0))

(* --- traced runs ---------------------------------------------------- *)

let traced_schedule () =
  let rng = Es_util.Rng.create ~seed:611 in
  let dag = Generators.chain rng ~n:5 ~wlo:0.5 ~whi:1.5 in
  let m = Mapping.single_processor dag in
  let s = Schedule.uniform m ~speed:0.5 in
  (* re-execute every task so failures are absorbed *)
  List.fold_left
    (fun acc i ->
      match Schedule.executions acc i with
      | e :: _ -> Schedule.with_execs acc i [ e; e ]
      | [] -> acc)
    s
    (List.init (Dag.n dag) Fun.id)

let hot = Rel.make ~lambda0:0.05 ~sensitivity:3. ~fmin:0.2 ~fmax:1.0 ~frel:0.8 ()

let test_trace_events_ordered_and_within_makespan () =
  let sched = traced_schedule () in
  let t = Sim.trace (Es_util.Rng.create ~seed:612) ~rel:hot sched in
  List.iter
    (fun (ev : Sim.event) ->
      Alcotest.(check bool) "start < finish" true (ev.start < ev.finish);
      Alcotest.(check bool) "within makespan" true (ev.finish <= t.Sim.makespan +. 1e-9))
    t.Sim.events;
  let rec sorted = function
    | (a : Sim.event) :: (b :: _ as rest) -> a.start <= b.start && sorted rest
    | _ -> true
  in
  Alcotest.(check bool) "sorted by start" true (sorted t.Sim.events)

let test_trace_second_attempt_iff_failure () =
  let sched = traced_schedule () in
  let t = Sim.trace (Es_util.Rng.create ~seed:613) ~rel:hot sched in
  (* a second attempt of task i exists iff its first attempt failed *)
  List.iter
    (fun (ev : Sim.event) ->
      if ev.attempt = 2 then begin
        match
          List.find_opt
            (fun (e : Sim.event) -> e.task = ev.task && e.attempt = 1)
            t.Sim.events
        with
        | None -> Alcotest.fail "second attempt without a first attempt"
        | Some first ->
          Alcotest.(check bool) "first failed" true first.failed;
          Alcotest.(check (float 1e-9)) "back to back" first.finish ev.start
      end)
    t.Sim.events

let test_trace_energy_consistent_with_events () =
  let sched = traced_schedule () in
  let t = Sim.trace (Es_util.Rng.create ~seed:614) ~rel:hot sched in
  (* realised energy at constant speed 0.5: 0.5³ × total event time *)
  let event_time =
    List.fold_left (fun acc (e : Sim.event) -> acc +. (e.finish -. e.start)) 0. t.Sim.events
  in
  Alcotest.(check (float 1e-6)) "energy = f³·time" (0.125 *. event_time) t.Sim.energy

let test_trace_render () =
  let sched = traced_schedule () in
  let t = Sim.trace (Es_util.Rng.create ~seed:615) ~rel:hot sched in
  let s = Sim.render_trace sched t in
  Alcotest.(check bool) "renders" true (String.length s > 0)

let test_trace_success_agrees_with_sim () =
  (* [monte_carlo_par] hands its only replica [Rng.split] of its
     generator, so one trial replays the draws of a traced run on that
     stream *)
  let sched = traced_schedule () in
  let bits name expected actual =
    Alcotest.(check string) name (Printf.sprintf "%h" expected) (Printf.sprintf "%h" actual)
  in
  let seen_faults = ref 0 in
  for seed = 616 to 665 do
    let t = Sim.trace (Es_util.Rng.split (Es_util.Rng.create ~seed)) ~rel:hot sched in
    let r = Sim.monte_carlo_par (Es_util.Rng.create ~seed) ~rel:hot ~trials:1 sched in
    let faults = List.length (List.filter (fun (e : Sim.event) -> e.failed) t.Sim.events) in
    seen_faults := !seen_faults + faults;
    bits "success" (if t.Sim.success then 1. else 0.) r.Sim.success_rate;
    bits "faults" (float_of_int faults) r.Sim.mean_faults;
    bits "energy" t.Sim.energy r.Sim.mean_realised_energy;
    bits "makespan" t.Sim.makespan r.Sim.mean_realised_makespan
  done;
  Alcotest.(check bool) "some runs saw faults" true (!seen_faults > 0)

(* --- cholesky generator --------------------------------------------- *)

let test_cholesky_structure () =
  let d = Generators.cholesky ~n:3 in
  (* 3 potrf + 3 trsm + 3 syrk + 1 gemm = 10 tasks *)
  Alcotest.(check int) "task count" 10 (Dag.n d);
  Alcotest.(check (list int)) "single source (potrf 0)" [ 0 ] (Dag.sources d);
  (* the last potrf is the sink of the factorisation *)
  Alcotest.(check bool) "acyclic (topo order exists)" true
    (Array.length (Dag.topological_order d) = 10)

let test_cholesky_critical_path_grows () =
  let cp n =
    let d = Generators.cholesky ~n in
    Dag.critical_path_length d ~durations:(Dag.weights d)
  in
  Alcotest.(check bool) "cp grows with n" true (cp 5 > cp 3 && cp 3 > cp 2)

(* --- cross-solver property tests ------------------------------------ *)

let qcheck_solver_chain_consistency =
  QCheck.Test.make ~name:"barrier = closed form on random chains" ~count:40
    QCheck.(pair (int_bound 100_000) (float_range 1.1 4.))
    (fun (seed, slack) ->
      let rng = Es_util.Rng.create ~seed in
      let n = 2 + Es_util.Rng.int rng 6 in
      let dag = Generators.chain rng ~n ~wlo:0.5 ~whi:2.5 in
      let m = Mapping.single_processor dag in
      let w = Dag.total_weight dag in
      let deadline = slack *. w in
      match
        ( Bicrit_continuous.chain ~weights:(Dag.weights dag) ~deadline ~fmin:0.05 ~fmax:1.,
          Bicrit_continuous.solve_general ~lo:(Array.make n 0.05) ~hi:(Array.make n 1.)
            ~deadline m )
      with
      | Some cf, Some nm ->
        Float.abs (cf.Bicrit_continuous.energy -. nm.Bicrit_continuous.energy)
        < 1e-5 *. cf.Bicrit_continuous.energy
      | None, None -> true
      | _ -> false)

let qcheck_greedy_feasible_schedules =
  QCheck.Test.make ~name:"tri-crit greedy schedules always validate" ~count:25
    QCheck.(pair (int_bound 100_000) (float_range 1.2 5.))
    (fun (seed, slack) ->
      let rng = Es_util.Rng.create ~seed in
      let n = 3 + Es_util.Rng.int rng 7 in
      let dag = Generators.chain rng ~n ~wlo:0.5 ~whi:2.5 in
      let m = Mapping.single_processor dag in
      let deadline = slack *. Dag.total_weight dag in
      match Tricrit_chain.solve_greedy ~rel ~deadline m with
      | None -> slack < 1.0001 (* only near-tight deadlines may fail *)
      | Some sol ->
        Validate.is_feasible ~deadline ~rel ~model:(Speed.continuous ~fmin:0.2 ~fmax:1.)
          sol.Tricrit_chain.schedule)

let qcheck_vdd_lp_above_continuous =
  QCheck.Test.make ~name:"vdd LP >= continuous optimum" ~count:20
    QCheck.(int_bound 100_000)
    (fun seed ->
      let rng = Es_util.Rng.create ~seed in
      let dag = Generators.random_layered rng ~layers:3 ~width:3 ~density:0.5 ~wlo:1. ~whi:2. in
      let m = List_sched.schedule dag ~p:2 ~priority:List_sched.Bottom_level in
      let dmin = List_sched.makespan_at_speed m ~f:1. in
      let deadline = 1.5 *. dmin in
      let n = Dag.n dag in
      match
        ( Bicrit_vdd.energy ~deadline ~levels m,
          Bicrit_continuous.solve_general ~lo:(Array.make n 0.2) ~hi:(Array.make n 1.)
            ~deadline m )
      with
      | Some lp, Some cont -> lp >= cont.Bicrit_continuous.energy *. (1. -. 1e-6)
      | _ -> false)

let suite =
  ( "hull-trace-properties",
    [
      Alcotest.test_case "hull at level points" `Quick test_hull_at_level_points;
      Alcotest.test_case "hull between levels" `Quick test_hull_between_levels;
      Alcotest.test_case "hull too fast" `Quick test_hull_too_fast_infeasible;
      Alcotest.test_case "hull slow saturates" `Quick test_hull_slow_saturates;
      Alcotest.test_case "hull chain = LP" `Slow test_hull_chain_matches_lp;
      Alcotest.test_case "hull schedule feasible" `Quick test_hull_chain_schedule_feasible;
      Alcotest.test_case "hull bracket consecutive" `Quick test_hull_bracket_consecutive;
      Alcotest.test_case "trace ordered events" `Quick
        test_trace_events_ordered_and_within_makespan;
      Alcotest.test_case "trace 2nd attempt iff failure" `Quick
        test_trace_second_attempt_iff_failure;
      Alcotest.test_case "trace energy consistent" `Quick
        test_trace_energy_consistent_with_events;
      Alcotest.test_case "trace renders" `Quick test_trace_render;
      Alcotest.test_case "trace agrees with sim" `Quick test_trace_success_agrees_with_sim;
      Alcotest.test_case "cholesky structure" `Quick test_cholesky_structure;
      Alcotest.test_case "cholesky critical path" `Quick test_cholesky_critical_path_grows;
      QCheck_alcotest.to_alcotest qcheck_solver_chain_consistency;
      QCheck_alcotest.to_alcotest qcheck_greedy_feasible_schedules;
      QCheck_alcotest.to_alcotest qcheck_vdd_lp_above_continuous;
    ] )

(* --- Tricrit_sp ------------------------------------------------------ *)

let test_sp_heuristic_feasible () =
  let rng = Es_util.Rng.create ~seed:621 in
  for _ = 1 to 3 do
    let sp = Generators.random_sp rng ~n:8 ~wlo:0.5 ~whi:3. in
    let dag = Sp.to_dag sp in
    let mapping = Mapping.one_task_per_proc dag in
    let dmin = List_sched.makespan_at_speed mapping ~f:1. in
    List.iter
      (fun slack ->
        let deadline = slack *. dmin in
        match Tricrit_sp.solve ~rel ~deadline sp with
        | None -> ()
        | Some sol ->
          Alcotest.(check bool) "validator accepts" true
            (Validate.is_feasible ~deadline ~rel
               ~model:(Speed.continuous ~fmin:0.2 ~fmax:1.) sol.Heuristics.schedule))
      [ 1.2; 2.; 3.5 ]
  done

let test_sp_heuristic_on_fork_matches_fork_oracle () =
  (* on a fork, family C's window allocation is exactly the fork
     algorithm's structure, so it should be near the fork optimum *)
  let rng = Es_util.Rng.create ~seed:622 in
  let dag = Generators.fork rng ~n:6 ~wlo:0.5 ~whi:3. in
  let sp =
    Sp.fork ~root:(Dag.weight dag 0) (Array.init 6 (fun i -> Dag.weight dag (i + 1)))
  in
  let dmin = List_sched.makespan_at_speed (Mapping.one_task_per_proc dag) ~f:1. in
  List.iter
    (fun slack ->
      let deadline = slack *. dmin in
      match (Tricrit_sp.solve ~rel ~deadline sp, Tricrit_fork.solve ~rel ~deadline dag) with
      | Some c, Some poly ->
        Alcotest.(check bool)
          (Printf.sprintf "within 5%% of fork optimum (%.4f vs %.4f, slack %.1f)"
             c.Heuristics.energy poly.Tricrit_fork.energy slack)
          true
          (c.Heuristics.energy <= poly.Tricrit_fork.energy *. 1.05)
      | None, None -> ()
      | _ -> Alcotest.fail "feasibility disagreement")
    [ 1.3; 2.; 3. ]

let test_sp_decide_subset_leaf_order () =
  let sp = Sp.Series (Sp.leaf 1., Sp.Parallel (Sp.leaf 2., Sp.leaf 3.)) in
  let subset = Tricrit_sp.decide_subset ~rel ~deadline:100. sp in
  Alcotest.(check int) "one decision per leaf" 3 (Array.length subset)

let sp_cases =
  [
    Alcotest.test_case "sp heuristic feasible" `Slow test_sp_heuristic_feasible;
    Alcotest.test_case "sp heuristic ~ fork oracle" `Slow
      test_sp_heuristic_on_fork_matches_fork_oracle;
    Alcotest.test_case "sp decide subset leaf order" `Quick test_sp_decide_subset_leaf_order;
  ]

let suite = (fst suite, snd suite @ sp_cases)
