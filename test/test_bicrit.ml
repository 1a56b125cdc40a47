(* Tests for BI-CRIT CONTINUOUS: closed forms (R1), their agreement
   with the convex solver (R2), and structural properties of the
   optimum. *)

let check_float tol = Alcotest.(check (float tol))

let fmin = 0.01 (* effectively unconstrained from below *)
let fmax = 10.

let solve_dag mapping ~deadline =
  let n = Dag.n (Mapping.dag mapping) in
  Bicrit_continuous.solve_general ~lo:(Array.make n fmin) ~hi:(Array.make n fmax)
    ~deadline mapping

let test_chain_closed_form () =
  match Bicrit_continuous.chain ~weights:[| 1.; 2.; 3. |] ~deadline:12. ~fmin ~fmax with
  | None -> Alcotest.fail "feasible"
  | Some { speeds; energy } ->
    Array.iter (fun f -> check_float 1e-12 "uniform speed" 0.5 f) speeds;
    check_float 1e-12 "energy = W³/D² shape" (6. *. 0.25) energy

let test_chain_infeasible () =
  Alcotest.(check bool) "too tight" true
    (Bicrit_continuous.chain ~weights:[| 10. |] ~deadline:0.5 ~fmin ~fmax:1. = None)

let test_chain_fmin_clamp () =
  (* loose deadline: speed clamps at fmin, deadline not tight *)
  match Bicrit_continuous.chain ~weights:[| 1. |] ~deadline:1000. ~fmin:0.5 ~fmax:1. with
  | Some { speeds; _ } -> check_float 1e-12 "clamped at fmin" 0.5 speeds.(0)
  | None -> Alcotest.fail "feasible"

let test_fork_theorem_formula () =
  (* the paper's fork theorem, unclamped regime *)
  let root = 1. and children = [| 1.; 2.; 2. |] in
  let deadline = 10. in
  let w3 = Float.cbrt (1. +. 8. +. 8.) in
  match Bicrit_continuous.fork_speeds ~root ~children ~deadline ~fmax with
  | None -> Alcotest.fail "feasible"
  | Some { speeds; energy } ->
    check_float 1e-12 "f0" ((w3 +. 1.) /. 10.) speeds.(0);
    check_float 1e-12 "f1 proportional" (speeds.(0) *. 1. /. w3) speeds.(1);
    check_float 1e-12 "f2 proportional" (speeds.(0) *. 2. /. w3) speeds.(2);
    check_float 1e-10 "energy matches closed form"
      (Bicrit_continuous.fork_energy ~root ~children ~deadline)
      energy

let test_fork_fmax_saturated () =
  (* tight deadline forces the source to fmax *)
  let root = 5. and children = [| 1.; 1. |] in
  let deadline = 6. in
  match Bicrit_continuous.fork_speeds ~root ~children ~deadline ~fmax:1. with
  | None -> Alcotest.fail "feasible"
  | Some { speeds; _ } ->
    check_float 1e-12 "source at fmax" 1. speeds.(0);
    (* children run at w/(D - w0/fmax) = 1/(6 - 5) = 1 *)
    check_float 1e-12 "children fill window" 1. speeds.(1)

let test_fork_infeasible () =
  Alcotest.(check bool) "no window" true
    (Bicrit_continuous.fork_speeds ~root:5. ~children:[| 1. |] ~deadline:4. ~fmax:1. = None)

(* ported onto the Es_check closed-form-vs-barrier oracle so the test
   suite and the escheck fuzzer share one comparison implementation *)
let closed_form_relation () =
  match Es_check.Relation.find "closed-form-vs-barrier" with
  | Some r -> r
  | None -> Alcotest.fail "closed-form-vs-barrier registered"

let check_relation_passes relation inst =
  match relation.Es_check.Relation.run inst with
  | Es_check.Relation.Pass -> ()
  | Es_check.Relation.Skip msg -> Alcotest.fail ("unexpected skip: " ^ msg)
  | Es_check.Relation.Fail msg ->
    Alcotest.fail (msg ^ "\non instance:\n" ^ Es_check.Gen.describe inst)

let test_fork_matches_solver () =
  let rng = Es_util.Rng.create ~seed:31 in
  let relation = closed_form_relation () in
  for _ = 1 to 5 do
    let n = 2 + Es_util.Rng.int rng 6 in
    let dag = Generators.fork rng ~n ~wlo:0.5 ~whi:4. in
    let deadline = Es_util.Rng.uniform_in rng 5. 15. in
    let dmin = List_sched.makespan_at_speed (Mapping.one_task_per_proc dag) ~f:fmax in
    let inst =
      Es_check.Gen.of_dag ~shape:Es_check.Gen.Fork ~procs:(n + 1) ~slack:(deadline /. dmin)
        ~levels:[| fmin; fmax |] dag
    in
    check_relation_passes relation inst
  done

let test_sp_equivalent_weight_energy () =
  (* E = Weq³ / D² for SP graphs, checked against the numeric solver
     through the shared Es_check oracle; the Weq recursion itself is
     pinned against one hand-computed instance below *)
  let rng = Es_util.Rng.create ~seed:32 in
  let relation = closed_form_relation () in
  for _ = 1 to 5 do
    let sp = Generators.random_sp rng ~n:(2 + Es_util.Rng.int rng 8) ~wlo:0.5 ~whi:3. in
    let deadline = Es_util.Rng.uniform_in rng 8. 20. in
    let dag = Sp.to_dag sp in
    let weq = Bicrit_continuous.sp_equivalent_weight sp in
    let closed = weq ** 3. /. (deadline *. deadline) in
    let cf = Bicrit_continuous.sp_speeds sp ~deadline in
    Alcotest.(check bool)
      (Printf.sprintf "sp_speeds energy %g matches Weq³/D² %g" cf.energy closed)
      true
      (Float.abs (closed -. cf.energy) < 1e-9 *. closed);
    let dmin = List_sched.makespan_at_speed (Mapping.one_task_per_proc dag) ~f:fmax in
    let inst =
      Es_check.Gen.of_dag ~shape:Es_check.Gen.Sp ~procs:(Dag.n dag) ~slack:(deadline /. dmin)
        ~levels:[| fmin; fmax |] dag
    in
    check_relation_passes relation inst
  done

let test_sp_speeds_meet_deadline_and_energy () =
  let rng = Es_util.Rng.create ~seed:33 in
  for _ = 1 to 5 do
    let sp = Generators.random_sp rng ~n:(2 + Es_util.Rng.int rng 8) ~wlo:0.5 ~whi:3. in
    let deadline = Es_util.Rng.uniform_in rng 8. 20. in
    let { Bicrit_continuous.speeds; energy } = Bicrit_continuous.sp_speeds sp ~deadline in
    let dag = Sp.to_dag sp in
    let durations = Array.mapi (fun i f -> Dag.weight dag i /. f) speeds in
    let cp = Dag.critical_path_length dag ~durations in
    Alcotest.(check bool) "deadline met" true (cp <= deadline *. (1. +. 1e-9));
    let weq = Bicrit_continuous.sp_equivalent_weight sp in
    check_float (1e-9 *. energy) "energy = Weq³/D²" (weq ** 3. /. (deadline *. deadline)) energy
  done

let test_solver_monotone_in_deadline () =
  let rng = Es_util.Rng.create ~seed:34 in
  let dag = Generators.random_layered rng ~layers:4 ~width:3 ~density:0.5 ~wlo:1. ~whi:3. in
  let mapping = List_sched.schedule dag ~p:2 ~priority:List_sched.Bottom_level in
  let dmin = List_sched.makespan_at_speed mapping ~f:fmax in
  let energies =
    List.filter_map
      (fun slack ->
        Option.map (fun (r : Bicrit_continuous.result) -> r.energy)
          (solve_dag mapping ~deadline:(slack *. dmin)))
      [ 1.05; 1.3; 1.8; 2.5; 4. ]
  in
  let rec decreasing = function
    | a :: (b :: _ as rest) -> b <= a +. 1e-9 && decreasing rest
    | _ -> true
  in
  Alcotest.(check int) "all feasible" 5 (List.length energies);
  Alcotest.(check bool) "energy decreasing in deadline" true (decreasing energies)

let test_solver_beats_uniform () =
  (* optimal energy must be <= running everything at the single speed
     that exactly meets the deadline *)
  let rng = Es_util.Rng.create ~seed:35 in
  let dag = Generators.random_layered rng ~layers:5 ~width:3 ~density:0.4 ~wlo:1. ~whi:3. in
  let mapping = List_sched.schedule dag ~p:3 ~priority:List_sched.Bottom_level in
  let dmin = List_sched.makespan_at_speed mapping ~f:1. in
  let deadline = 1.5 *. dmin in
  (* uniform speed meeting D exactly: f = dmin/deadline · 1 *)
  let f_uniform = dmin /. deadline in
  let uniform_energy = Dag.total_weight dag *. f_uniform *. f_uniform in
  match solve_dag mapping ~deadline with
  | None -> Alcotest.fail "feasible"
  | Some { energy; _ } ->
    Alcotest.(check bool) "no worse than uniform" true (energy <= uniform_energy *. (1. +. 1e-6))

let test_solver_infeasible_detected () =
  let rng = Es_util.Rng.create ~seed:36 in
  let dag = Generators.chain rng ~n:4 ~wlo:1. ~whi:2. in
  let mapping = Mapping.single_processor dag in
  Alcotest.(check bool) "too tight" true
    (solve_dag mapping ~deadline:(0.5 *. Dag.total_weight dag /. fmax) = None)

let test_solver_speeds_within_bounds () =
  let rng = Es_util.Rng.create ~seed:37 in
  let dag = Generators.random_layered rng ~layers:4 ~width:4 ~density:0.4 ~wlo:1. ~whi:3. in
  let mapping = List_sched.schedule dag ~p:2 ~priority:List_sched.Bottom_level in
  let n = Dag.n dag in
  let lo = Array.make n 0.3 and hi = Array.make n 0.9 in
  let dmin =
    Dag.critical_path_length (Mapping.constraint_dag mapping)
      ~durations:(Array.map (fun w -> w /. 0.9) (Dag.weights dag))
  in
  match Bicrit_continuous.solve_general ~lo ~hi ~deadline:(2. *. dmin) mapping with
  | None -> Alcotest.fail "feasible"
  | Some { speeds; _ } ->
    Array.iter
      (fun f -> Alcotest.(check bool) "within [0.3, 0.9]" true (f >= 0.3 -. 1e-9 && f <= 0.9 +. 1e-9))
      speeds

let test_effective_weights_model_reexecution () =
  (* doubling a weight doubles its duration at equal speed: the
     schedule with eff weight 2w must take the re-execution time into
     account *)
  let dag = Dag.make ?labels:None ~weights:[| 2.; 2. |] ~edges:[ (0, 1) ] in
  let mapping = Mapping.single_processor dag in
  let eff = [| 4.; 2. |] in
  let lo = Array.make 2 fmin and hi = Array.make 2 1. in
  (* time needed at fmax: (4 + 2)/1 = 6 *)
  Alcotest.(check bool) "infeasible below 6" true
    (Bicrit_continuous.solve_general ~eff_weights:eff ~lo ~hi ~deadline:5.9 mapping = None);
  Alcotest.(check bool) "feasible at 6+" true
    (Bicrit_continuous.solve_general ~eff_weights:eff ~lo ~hi ~deadline:6.01 mapping <> None)

let test_lower_bound_below_feasible_solutions () =
  let rng = Es_util.Rng.create ~seed:38 in
  let dag = Generators.random_layered rng ~layers:4 ~width:3 ~density:0.4 ~wlo:1. ~whi:3. in
  let mapping = List_sched.schedule dag ~p:2 ~priority:List_sched.Bottom_level in
  let dmin = List_sched.makespan_at_speed mapping ~f:1. in
  let deadline = 2. *. dmin in
  let lb = Bicrit_continuous.energy_lower_bound ~deadline ~fmin:0.2 ~fmax:1. mapping in
  (* any uniform-speed feasible schedule is above the bound *)
  let f = Float.max 0.2 (dmin /. deadline) in
  let uniform = Dag.total_weight dag *. f *. f in
  Alcotest.(check bool) "lb <= uniform" true (lb <= uniform *. (1. +. 1e-9))

let qcheck_chain_energy_formula =
  QCheck.Test.make ~name:"chain energy = (Σw)³/D² when unclamped" ~count:100
    QCheck.(pair (list_of_size Gen.(1 -- 10) (float_range 0.5 3.)) (float_range 20. 60.))
    (fun (ws, deadline) ->
      QCheck.assume (ws <> []);
      let weights = Array.of_list ws in
      match Bicrit_continuous.chain ~weights ~deadline ~fmin:0.001 ~fmax:100. with
      | None -> false
      | Some { energy; _ } ->
        let total = Array.fold_left ( +. ) 0. weights in
        Float.abs (energy -. (total ** 3. /. (deadline *. deadline))) < 1e-6 *. energy)

module Obs = Es_obs.Obs

let newton = Obs.counter "barrier_newton_iters"

(* [f ()] with telemetry on, from zeroed counters. *)
let with_telemetry f =
  Obs.reset ();
  Obs.enable ();
  Fun.protect ~finally:(fun () -> Obs.disable ()) f

(* Run [solve_general] on a chain of [n] tasks drawn with seed 1, mapped
   round-robin on [p] processors, with telemetry on: the result, its
   Newton steps, its shifted-factor steps and the bytes it allocated.
   A minor collection before each reading of the allocation counter
   makes it count the minor heap's words too. *)
let solve_chain ?(n = 300) ~p ~fmin ~fmax ~slack () =
  let dag = Generators.chain (Es_util.Rng.create ~seed:1) ~n ~wlo:0.5 ~whi:3. in
  let n = Dag.n dag in
  let mapping = Mapping.of_assignment ~p dag ~proc:(Array.init n (fun i -> i mod p)) in
  let deadline = slack *. List_sched.makespan_at_speed mapping ~f:fmax in
  let shifted = Obs.counter "barrier_shifted_factors" in
  with_telemetry @@ fun () ->
  Gc.minor ();
  let before = Gc.allocated_bytes () in
  let result =
    Bicrit_continuous.solve_general ~lo:(Array.make n fmin) ~hi:(Array.make n fmax) ~deadline
      mapping
  in
  Gc.minor ();
  (result, Obs.value newton, Obs.value shifted, Gc.allocated_bytes () -. before)

(* [per_step] bytes per Newton step against 1/8 of one dense 2n×2n
   Newton matrix of an [n]-task chain *)
let check_below_dense ~n per_step =
  let dense = float_of_int (2 * n * 2 * n * 8) in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f kB per Newton step < 1/8 of the %.2f MB dense matrix" (per_step /. 1e3)
       (dense /. 1e6))
    true
    (per_step < dense /. 8.)

(* 600 barrier variables: every Newton step stays on the sparse
   Cholesky, and allocates far less than one dense 2n×2n Hessian; the
   set-up (rows, symbolic analysis) counts against the steps too. *)
let test_sparse_newton_steps_at_scale () =
  let result, newton, shifted, allocated = solve_chain ~p:4 ~fmin:0.2 ~fmax:1. ~slack:1.5 () in
  Alcotest.(check bool) "feasible" true (result <> None);
  Alcotest.(check int) "no shifted factor" 0 shifted;
  check_below_dense ~n:300 (allocated /. float_of_int newton)

(* A 600-task chain on one processor with fmax/fmin = 10⁴ and a
   deadline 1% above the fmax makespan: one of the 11 Newton systems is
   indefinite to working precision and is factored again with a
   shifted diagonal, on the same sparse pattern: no step allocates
   anything near the dense 2n×2n matrix.  The answer stays within
   1e-12 of the closed form. *)
let test_shifted_factor_keeps_the_answer () =
  let result, newton, shifted, allocated =
    solve_chain ~n:600 ~p:1 ~fmin:1e-3 ~fmax:10. ~slack:1.01 ()
  in
  Alcotest.(check int) "shifted factors" 1 shifted;
  Alcotest.(check int) "Newton steps" 11 newton;
  check_below_dense ~n:600 (allocated /. float_of_int newton);
  let dag = Generators.chain (Es_util.Rng.create ~seed:1) ~n:600 ~wlo:0.5 ~whi:3. in
  let deadline = 1.01 *. Dag.total_weight dag /. 10. in
  match (result, Bicrit_continuous.chain ~weights:(Dag.weights dag) ~deadline ~fmin:1e-3 ~fmax:10.) with
  | Some { energy; _ }, Some { energy = exact; _ } ->
    Alcotest.(check string) "energy bits" "0x1.93a820fb32e5dp+16" (Printf.sprintf "%h" energy);
    check_float (1e-12 *. exact) "energy against the closed form" exact energy
  | _ -> Alcotest.fail "feasible"

(* A 40-task chain on one processor, every weight and the deadline
   scaled by c.  The method takes the same path at every c and stops
   once the gap is below both [tol] and 10⁻¹² of the energy; at
   c = 10⁴ [tol] is below double precision and it stops at the
   rounding floor.  No solve reaches the iteration cap, every answer is
   within 1e-9 of the closed form, and each is at least as close as
   the pinned energy [before] of an earlier solver, where one is
   pinned. *)
let test_scale_sweep_no_newton_cap () =
  let base = Generators.chain (Es_util.Rng.create ~seed:3) ~n:40 ~wlo:0.5 ~whi:3. in
  let fmin = 0.1 and fmax = 5. in
  let cap_hits = Obs.counter "barrier_newton_cap_hits" in
  List.iter
    (fun (c, steps, before) ->
      let dag = Dag.map_weights base (fun _ w -> c *. w) in
      let n = Dag.n dag in
      let deadline = 1.5 *. Dag.total_weight dag /. fmax in
      let result =
        with_telemetry @@ fun () ->
        Bicrit_continuous.solve_general ~lo:(Array.make n fmin) ~hi:(Array.make n fmax) ~deadline
          (Mapping.single_processor dag)
      in
      let label what = Printf.sprintf "c = %g: %s" c what in
      Alcotest.(check int) (label "solves at the cap") 0 (Obs.value cap_hits);
      Alcotest.(check int) (label "Newton steps") steps (Obs.value newton);
      match (result, Bicrit_continuous.chain ~weights:(Dag.weights dag) ~deadline ~fmin ~fmax) with
      | Some { energy; _ }, Some { energy = exact; _ } ->
        let error = Float.abs (energy -. exact) in
        Alcotest.(check bool) (label "relative error <= 1e-9") true (error <= 1e-9 *. exact);
        Option.iter
          (fun before ->
            Alcotest.(check bool) (label "error no worse") true
              (error <= Float.abs (before -. exact)))
          before
      | _ -> Alcotest.fail (label "feasible"))
    [
      (1e-9, 5, None);
      (1e-8, 5, None);
      (1e-6, 5, Some 0x1.afca950221b1bp-11);
      (1., 5, Some 0x1.9bc9ab9090425p+9);
      (1e4, 9, Some 0x1.f6abadedf5559p+22);
    ]

(* Two instances the method's safeguards must carry through: base 18
   of the serve-hot benchmark's seed 1 (15 tasks on 6 processors,
   continuous) and escheck's deadline-scaling trial 0 under seed 1, at
   its deadline and at twice it.  Every answer passes the KKT
   certificate. *)
let serve_hot_base_18 =
  {|{"id":18,"tasks":[0.5789995639190777,3.4805770872048822,1.3003352583786862,0.50844747392880363,3.4177806550459966,3.3156917594673865,1.7712308148162204,3.2376684293253559,1.6369623162425213,2.5136376215305627,3.9229987803912052,2.8177334418975297,3.4453658980554231,3.484332194212072,1.134200602362003],"edges":[[0,7],[0,6],[1,12],[1,2],[2,11],[2,7],[2,5],[3,13],[3,12],[3,7],[5,12],[5,9],[5,6],[6,14],[6,12],[6,7],[7,8],[8,13],[8,12],[8,11],[9,13],[10,14],[10,12],[11,14]],"procs":6,"mapping":[[1,9,4],[2,11],[5,13],[0,10,8],[6,12],[3,7,14]],"model":{"kind":"continuous","fmin":0.037453396797464449,"fmax":7.4906793594928898},"deadline":13.644848763443033}|}

let check_kkt ~label ~deadline ~lo ~hi mapping =
  match Bicrit_continuous.solve_general ~lo ~hi ~deadline mapping with
  | None -> Alcotest.fail (label ^ ": feasible")
  | Some r ->
    let verdict = Es_check.Kkt.check_general ~deadline ~lo ~hi mapping r in
    Alcotest.(check string) (label ^ ": KKT") "ok"
      (if Es_check.Kkt.is_ok verdict then "ok" else Es_check.Kkt.describe verdict)

let test_stall_instances () =
  (match Es_serve.Protocol.parse_line serve_hot_base_18 with
  | Es_serve.Protocol.Malformed msg -> Alcotest.fail msg
  | Es_serve.Protocol.Request { inst; _ } ->
    let mapping = Es_serve.Protocol.resolve_mapping inst in
    let n = Array.length inst.weights in
    let lo = Array.make n (Speed.fmin inst.model) and hi = Array.make n (Speed.fmax inst.model) in
    check_kkt ~label:"serve-hot base 18" ~deadline:inst.deadline ~lo ~hi mapping);
  let inst = Es_check.Gen.generate (Es_util.Rng.create ~seed:1) in
  let mapping = Es_check.Gen.mapping inst and d = Es_check.Gen.deadline inst in
  let n = Dag.n (Mapping.dag mapping) in
  (* the relation's speed cap: far above every optimal speed *)
  let hi = Array.make n (100. *. List_sched.makespan_at_speed mapping ~f:1. /. d) in
  let lo = Array.make n 0. in
  List.iter
    (fun deadline -> check_kkt ~label:(Printf.sprintf "deadline-scaling at %g" deadline) ~deadline ~lo ~hi mapping)
    [ d; 2. *. d ];
  match Es_check.Relation.find "deadline-scaling" with
  | None -> Alcotest.fail "deadline-scaling registered"
  | Some relation -> check_relation_passes relation inst

let suite =
  ( "bicrit-continuous",
    [
      Alcotest.test_case "chain closed form" `Quick test_chain_closed_form;
      Alcotest.test_case "chain infeasible" `Quick test_chain_infeasible;
      Alcotest.test_case "chain fmin clamp" `Quick test_chain_fmin_clamp;
      Alcotest.test_case "fork theorem formula" `Quick test_fork_theorem_formula;
      Alcotest.test_case "fork fmax saturated" `Quick test_fork_fmax_saturated;
      Alcotest.test_case "fork infeasible" `Quick test_fork_infeasible;
      Alcotest.test_case "fork matches solver" `Slow test_fork_matches_solver;
      Alcotest.test_case "sp eq-weight energy vs solver" `Slow test_sp_equivalent_weight_energy;
      Alcotest.test_case "sp speeds meet deadline" `Quick test_sp_speeds_meet_deadline_and_energy;
      Alcotest.test_case "solver monotone in deadline" `Slow test_solver_monotone_in_deadline;
      Alcotest.test_case "solver beats uniform" `Quick test_solver_beats_uniform;
      Alcotest.test_case "solver infeasible detected" `Quick test_solver_infeasible_detected;
      Alcotest.test_case "solver respects bounds" `Quick test_solver_speeds_within_bounds;
      Alcotest.test_case "effective weights = re-execution time" `Quick
        test_effective_weights_model_reexecution;
      Alcotest.test_case "lower bound sanity" `Quick test_lower_bound_below_feasible_solutions;
      Alcotest.test_case "sparse newton steps at scale" `Quick test_sparse_newton_steps_at_scale;
      Alcotest.test_case "shifted factor keeps the answer" `Slow test_shifted_factor_keeps_the_answer;
      Alcotest.test_case "scale sweep reaches no Newton cap" `Quick test_scale_sweep_no_newton_cap;
      Alcotest.test_case "stalled instances pass KKT" `Quick test_stall_instances;
      QCheck_alcotest.to_alcotest qcheck_chain_energy_formula;
    ] )

let qcheck_solve_general_fuzz =
  QCheck.Test.make ~name:"solve_general outputs always feasible and bounded" ~count:30
    QCheck.(triple (int_bound 100_000) (int_range 1 4) (float_range 1.05 3.))
    (fun (seed, p, slack) ->
      let rng = Es_util.Rng.create ~seed in
      let dag =
        Generators.random_layered rng ~layers:(2 + Es_util.Rng.int rng 3) ~width:3
          ~density:0.5 ~wlo:0.5 ~whi:3.
      in
      let m = List_sched.schedule dag ~p ~priority:List_sched.Bottom_level in
      let dmin = List_sched.makespan_at_speed m ~f:1. in
      let deadline = slack *. dmin in
      let n = Dag.n dag in
      match
        Bicrit_continuous.solve_general ~lo:(Array.make n 0.2) ~hi:(Array.make n 1.)
          ~deadline m
      with
      | None -> false (* slack > 1: must be feasible *)
      | Some { speeds; energy } ->
        let bounds_ok =
          Array.for_all (fun f -> f >= 0.2 -. 1e-9 && f <= 1. +. 1e-9) speeds
        in
        let durations = Array.mapi (fun i f -> Dag.weight dag i /. f) speeds in
        let ms =
          Dag.critical_path_length (Mapping.constraint_dag m) ~durations
        in
        let uniform_f = Float.max 0.2 (dmin /. deadline) in
        let uniform_e = Dag.total_weight dag *. uniform_f *. uniform_f in
        bounds_ok && ms <= deadline *. (1. +. 1e-6) && energy <= uniform_e *. (1. +. 1e-6))

let suite = (fst suite, snd suite @ [ QCheck_alcotest.to_alcotest qcheck_solve_general_fuzz ])
