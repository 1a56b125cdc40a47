(* Tests for the Pareto-front exploration and an end-to-end pipeline
   integration test (generate → map → optimize → validate →
   simulate). *)

let rel = Rel.make ~lambda0:1e-5 ~sensitivity:3. ~fmin:0.2 ~fmax:1.0 ~frel:0.8 ()

let test_bicrit_front_monotone () =
  let rng = Es_util.Rng.create ~seed:401 in
  let dag = Generators.random_layered rng ~layers:4 ~width:3 ~density:0.5 ~wlo:1. ~whi:3. in
  let m = List_sched.schedule dag ~p:2 ~priority:List_sched.Bottom_level in
  let dmin = List_sched.makespan_at_speed m ~f:1. in
  let deadlines = List.map (fun s -> s *. dmin) [ 1.05; 1.3; 1.7; 2.2; 3. ] in
  let front = Pareto.bicrit_front ~fmin:0.2 ~fmax:1. ~deadlines m in
  Alcotest.(check int) "all feasible" 5 (List.length front);
  Alcotest.(check bool) "is a front" true (Pareto.is_front front)

let test_tricrit_front () =
  let rng = Es_util.Rng.create ~seed:402 in
  let dag = Generators.chain rng ~n:6 ~wlo:1. ~whi:2. in
  let m = Mapping.single_processor dag in
  let dmin = Dag.total_weight dag in
  let deadlines = List.map (fun s -> s *. dmin) [ 1.1; 1.8; 3.; 4.5 ] in
  let front = Pareto.tricrit_front ~rel ~deadlines m in
  Alcotest.(check int) "all feasible" 4 (List.length front);
  (* re-execution count grows along the front *)
  let counts = List.map (fun p -> p.Pareto.n_reexecuted) front in
  Alcotest.(check bool) "re-exec eventually engages" true
    (List.fold_left max 0 counts > 0)

let test_dominates () =
  let a = { Pareto.deadline = 1.; energy = 1.; n_reexecuted = 0 } in
  let b = { Pareto.deadline = 2.; energy = 2.; n_reexecuted = 0 } in
  Alcotest.(check bool) "a dominates b" true (Pareto.dominates a b);
  Alcotest.(check bool) "b not dominates a" false (Pareto.dominates b a);
  Alcotest.(check bool) "no self domination" false (Pareto.dominates a a)

let test_is_front_rejects_dominated () =
  let pts =
    [
      { Pareto.deadline = 1.; energy = 1.; n_reexecuted = 0 };
      { Pareto.deadline = 2.; energy = 2.; n_reexecuted = 0 };
    ]
  in
  Alcotest.(check bool) "dominated point detected" false (Pareto.is_front pts)

(* end-to-end: full pipeline on every speed model *)
let test_pipeline_all_models () =
  let rng = Es_util.Rng.create ~seed:403 in
  let dag = Generators.random_layered rng ~layers:3 ~width:3 ~density:0.5 ~wlo:1. ~whi:2. in
  let m = List_sched.schedule dag ~p:2 ~priority:List_sched.Bottom_level in
  let dmin = List_sched.makespan_at_speed m ~f:1. in
  let deadline = 2. *. dmin in
  let levels = [| 0.2; 0.4; 0.6; 0.8; 1.0 |] in
  let n = Dag.n dag in
  let schedules =
    [
      ( "continuous",
        Speed.continuous ~fmin:0.2 ~fmax:1.,
        Bicrit_continuous.solve ~deadline ~fmin:0.2 ~fmax:1. m );
      ("vdd", Speed.vdd_hopping levels, Bicrit_vdd.solve ~deadline ~levels m);
      ( "discrete",
        Speed.discrete levels,
        Option.map (fun (r : Bicrit_discrete.exact) -> r.schedule)
          (Bicrit_discrete.solve_exact ~deadline ~levels m) );
      ( "incremental",
        Speed.incremental ~fmin:0.2 ~fmax:1. ~delta:0.2,
        Bicrit_incremental.approximate ~deadline ~fmin:0.2 ~fmax:1. ~delta:0.2 m );
    ]
  in
  ignore n;
  List.iter
    (fun (name, model, sched) ->
      match sched with
      | None -> Alcotest.failf "%s infeasible" name
      | Some s ->
        Alcotest.(check bool) (name ^ " validates") true
          (Validate.is_feasible ~deadline ~model s);
        (* simulate: without reliability constraints enforced, just
           check the simulator runs and reports sane numbers *)
        let report = Sim.monte_carlo_par (Es_util.Rng.create ~seed:404) ~rel ~trials:200 s in
        Alcotest.(check bool) (name ^ " sim sane") true
          (report.Sim.success_rate >= 0. && report.Sim.success_rate <= 1.))
    schedules

(* Warm-start invariance: the vdd front computed with warm-chained
   bases must equal the all-cold front point-for-point, and must not
   depend on how many pool domains execute the 25-deadline blocks.
   rtol 1e-9 — warm and cold solves land on the same optimal basis, so
   the agreement is near-exact, not merely approximate.  The cold
   front restates one LP per block at each deadline; it must equal,
   exactly, the LP rebuilt from scratch at that deadline. *)
let check_fronts_equal ~rtol name a b =
  Alcotest.(check int) (name ^ ": same length") (List.length a) (List.length b);
  List.iter2
    (fun (p : Pareto.point) (q : Pareto.point) ->
      Alcotest.(check (float 0.)) (name ^ ": same deadline") p.deadline q.deadline;
      let scale = Float.max 1. (Float.abs p.energy) in
      Alcotest.(check bool)
        (Printf.sprintf "%s: energy %.12g ~ %.12g" name p.energy q.energy)
        true
        (Float.abs (p.energy -. q.energy) <= rtol *. scale))
    a b

let test_vdd_warm_front_invariance () =
  let levels = [| 0.2; 0.4; 0.6; 0.8; 1.0 |] in
  List.iter
    (fun seed ->
      let rng = Es_util.Rng.create ~seed in
      let dag =
        Generators.random_layered rng ~layers:4 ~width:3 ~density:0.5 ~wlo:1. ~whi:3.
      in
      let m = List_sched.schedule dag ~p:2 ~priority:List_sched.Bottom_level in
      let dmin = List_sched.makespan_at_speed m ~f:1. in
      (* more deadlines than one 25-block, so chaining + the block
         partition are both exercised *)
      let deadlines =
        List.init 30 (fun i -> dmin *. (1.02 +. (0.07 *. float_of_int i)))
      in
      let cold = Pareto.bicrit_vdd_front ~warm:false ~levels ~deadlines m in
      let rebuilt =
        List.filter_map
          (fun deadline ->
            Option.map
              (fun energy -> { Pareto.deadline; energy; n_reexecuted = 0 })
              (Bicrit_vdd.energy ~deadline ~levels m))
          deadlines
      in
      check_fronts_equal ~rtol:0. (Printf.sprintf "seed %d cold=rebuilt" seed) rebuilt cold;
      let warm = Pareto.bicrit_vdd_front ~warm:true ~levels ~deadlines m in
      check_fronts_equal ~rtol:1e-9 (Printf.sprintf "seed %d warm=cold" seed) cold warm;
      let warm_par =
        Es_par.Pool.with_pool ~domains:4 (fun pool ->
            Pareto.bicrit_vdd_front ~pool ~warm:true ~levels ~deadlines m)
      in
      check_fronts_equal ~rtol:0. (Printf.sprintf "seed %d jobs1=jobs4" seed) warm
        warm_par;
      Alcotest.(check bool) (Printf.sprintf "seed %d is a front" seed) true
        (Pareto.is_front warm))
    [ 407; 408 ]

let test_pipeline_tricrit_with_simulation () =
  let rng = Es_util.Rng.create ~seed:405 in
  let dag = Generators.chain rng ~n:6 ~wlo:1. ~whi:2. in
  let m = Mapping.single_processor dag in
  let deadline = 3. *. Dag.total_weight dag in
  (* a measurable fault rate for the simulation check *)
  let hot = Rel.make ~lambda0:0.02 ~sensitivity:3. ~fmin:0.2 ~fmax:1.0 ~frel:0.8 () in
  match Heuristics.best_of ~rel:hot ~deadline m with
  | None -> Alcotest.fail "feasible"
  | Some (sol, _) ->
    let report =
      Sim.monte_carlo_par (Es_util.Rng.create ~seed:406) ~rel:hot ~trials:20_000
        sol.Heuristics.schedule
    in
    (* every task satisfies the reliability threshold, so the empirical
       per-task failure rate must be at most the single-execution
       threshold failure of the heaviest task (plus noise) *)
    let worst_target =
      Array.fold_left Float.max 0.
        (Array.map (fun w -> Rel.target_failure hot ~w) (Dag.weights dag))
    in
    Array.iter
      (fun measured ->
        Alcotest.(check bool)
          (Printf.sprintf "measured %.5f <= target %.5f + noise" measured worst_target)
          true
          (measured <= worst_target +. 0.01))
      report.Sim.task_failure_rate

let suite =
  ( "pareto-and-pipeline",
    [
      Alcotest.test_case "bicrit front monotone" `Quick test_bicrit_front_monotone;
      Alcotest.test_case "tricrit front" `Slow test_tricrit_front;
      Alcotest.test_case "dominates" `Quick test_dominates;
      Alcotest.test_case "is_front rejects dominated" `Quick test_is_front_rejects_dominated;
      Alcotest.test_case "vdd warm front invariance" `Slow test_vdd_warm_front_invariance;
      Alcotest.test_case "pipeline all models" `Slow test_pipeline_all_models;
      Alcotest.test_case "pipeline tricrit + simulation" `Slow
        test_pipeline_tricrit_with_simulation;
    ] )
