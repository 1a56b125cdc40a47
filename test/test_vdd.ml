(* Tests for BI-CRIT under VDD-HOPPING (R3/R4): the LP optimum sits
   between the continuous bound and any single-speed discrete solution,
   uses at most two consecutive speeds per task, and the
   continuous-to-vdd emulation is feasible and time-exact. *)

let levels = [| 0.2; 0.4; 0.6; 0.8; 1.0 |]
let model = Speed.vdd_hopping levels

let instance ~seed ~p =
  let rng = Es_util.Rng.create ~seed in
  let dag = Generators.random_layered rng ~layers:4 ~width:3 ~density:0.5 ~wlo:1. ~whi:3. in
  let mapping = List_sched.schedule dag ~p ~priority:List_sched.Bottom_level in
  let dmin = List_sched.makespan_at_speed mapping ~f:1. in
  (mapping, dmin)

let test_lp_feasible_schedule () =
  let mapping, dmin = instance ~seed:51 ~p:2 in
  let deadline = 1.4 *. dmin in
  match Bicrit_vdd.solve ~deadline ~levels mapping with
  | None -> Alcotest.fail "expected feasible"
  | Some sched ->
    Alcotest.(check bool) "validator accepts" true
      (Validate.is_feasible ~deadline ~model sched)

let test_lp_infeasible_detected () =
  let mapping, dmin = instance ~seed:52 ~p:2 in
  Alcotest.(check bool) "too tight" true
    (Bicrit_vdd.solve ~deadline:(0.5 *. dmin) ~levels mapping = None)

let test_two_speed_support () =
  List.iter
    (fun seed ->
      let mapping, dmin = instance ~seed ~p:2 in
      let deadline = 1.6 *. dmin in
      match Bicrit_vdd.solve ~deadline ~levels mapping with
      | None -> Alcotest.fail "expected feasible"
      | Some sched ->
        Alcotest.(check bool) "two consecutive speeds" true
          (Bicrit_vdd.two_speed_support ~levels sched))
    [ 53; 54; 55; 56 ]

let test_lp_between_continuous_and_discrete () =
  (* ported onto the Es_check model-dominance oracle (which checks the
     full E_CONT <= E_VDD <= E_INCR <= E_DISCRETE chain plus round-up
     dominance); the instance is kept small enough that the oracle
     runs the exact solvers instead of skipping *)
  let relation =
    match Es_check.Relation.find "model-dominance" with
    | Some r -> r
    | None -> Alcotest.fail "model-dominance registered"
  in
  let rng = Es_util.Rng.create ~seed:57 in
  let dag = Generators.random_layered rng ~layers:3 ~width:2 ~density:0.5 ~wlo:1. ~whi:3. in
  let inst = Es_check.Gen.of_dag ~shape:Es_check.Gen.Layered ~procs:2 ~slack:1.5 ~levels dag in
  match relation.Es_check.Relation.run inst with
  | Es_check.Relation.Pass -> ()
  | Es_check.Relation.Skip msg -> Alcotest.fail ("oracle must not skip here: " ^ msg)
  | Es_check.Relation.Fail msg ->
    Alcotest.fail (msg ^ "\non instance:\n" ^ Es_check.Gen.describe inst)

let test_lp_tightens_with_more_levels () =
  (* refining the level set can only help *)
  let mapping, dmin = instance ~seed:58 ~p:2 in
  let deadline = 1.5 *. dmin in
  let coarse = [| 0.2; 1.0 |] in
  let fine = [| 0.2; 0.4; 0.6; 0.8; 1.0 |] in
  match
    (Bicrit_vdd.energy ~deadline ~levels:coarse mapping,
     Bicrit_vdd.energy ~deadline ~levels:fine mapping)
  with
  | Some ec, Some ef -> Alcotest.(check bool) "finer no worse" true (ef <= ec *. (1. +. 1e-9))
  | _ -> Alcotest.fail "both feasible"

let test_emulation_time_exact () =
  let mapping, dmin = instance ~seed:59 ~p:2 in
  let deadline = 1.5 *. dmin in
  let n = Dag.n (Mapping.dag mapping) in
  match
    Bicrit_continuous.solve_general ~lo:(Array.make n 0.2) ~hi:(Array.make n 1.)
      ~deadline mapping
  with
  | None -> Alcotest.fail "continuous feasible"
  | Some { speeds; _ } -> (
    match Bicrit_vdd.emulate_continuous ~levels ~speeds mapping with
    | None -> Alcotest.fail "emulation in range"
    | Some sched ->
      let dag = Mapping.dag mapping in
      for i = 0 to n - 1 do
        let t_cont = Dag.weight dag i /. speeds.(i) in
        Alcotest.(check (float 1e-9))
          "per-task time preserved" t_cont (Schedule.duration sched i)
      done;
      Alcotest.(check bool) "feasible under vdd" true
        (Validate.is_feasible ~deadline ~model sched))

let test_emulation_energy_sandwich () =
  (* E_cont <= E_lp <= E_emulated *)
  let mapping, dmin = instance ~seed:60 ~p:3 in
  let deadline = 1.4 *. dmin in
  let n = Dag.n (Mapping.dag mapping) in
  match
    Bicrit_continuous.solve_general ~lo:(Array.make n 0.2) ~hi:(Array.make n 1.)
      ~deadline mapping
  with
  | None -> Alcotest.fail "continuous feasible"
  | Some { speeds; energy = e_cont } -> (
    match
      ( Bicrit_vdd.energy ~deadline ~levels mapping,
        Bicrit_vdd.emulate_continuous ~levels ~speeds mapping )
    with
    | Some e_lp, Some emu ->
      let e_emu = Schedule.energy emu in
      Alcotest.(check bool) "cont <= lp" true (e_cont <= e_lp *. (1. +. 1e-6));
      Alcotest.(check bool) "lp <= emulated" true (e_lp <= e_emu *. (1. +. 1e-6))
    | _ -> Alcotest.fail "both must exist")

let test_single_task_exact_mix () =
  (* one task, weight 1, deadline between the two levels' durations:
     the optimal mix is analytic *)
  let dag = Dag.make ?labels:None ~weights:[| 1. |] ~edges:[] in
  let mapping = Mapping.single_processor dag in
  let levels = [| 0.5; 1.0 |] in
  let deadline = 1.5 in
  (* α·0.5 + β·1 = 1, α + β = 1.5 → β = 0.5, α = 1.
     energy = 0.125·1 + 1·0.5 = 0.625 *)
  match Bicrit_vdd.energy ~deadline ~levels mapping with
  | Some e ->
    Alcotest.(check (float 1e-7)) "analytic mix" 0.625 e;
    (* the Es_check hull oracle derives the same value geometrically *)
    (match Es_check.Brute.vdd_chain_optimum ~levels ~weights:[| 1. |] ~deadline with
    | Some h -> Alcotest.(check (float 1e-9)) "hull oracle agrees" h e
    | None -> Alcotest.fail "hull oracle feasible")
  | None -> Alcotest.fail "feasible"

let qcheck_vdd_below_best_single_speed =
  QCheck.Test.make ~name:"vdd LP at least as good as any single level" ~count:30
    QCheck.(int_bound 10_000)
    (fun seed ->
      let rng = Es_util.Rng.create ~seed in
      let dag = Generators.chain rng ~n:(1 + Es_util.Rng.int rng 5) ~wlo:0.5 ~whi:2. in
      let mapping = Mapping.single_processor dag in
      let dmin = Dag.total_weight dag in
      let deadline = Es_util.Rng.uniform_in rng 1.1 3. *. dmin in
      match Bicrit_vdd.energy ~deadline ~levels mapping with
      | None -> false
      | Some e_lp ->
        (* best single level meeting the deadline *)
        let best_single =
          Array.to_list levels
          |> List.filter_map (fun f ->
                 if Dag.total_weight dag /. f <= deadline then
                   Some (Dag.total_weight dag *. f *. f)
                 else None)
          |> List.fold_left Float.min infinity
        in
        e_lp <= best_single *. (1. +. 1e-6))

(* bench/e2e solve-large's VDD Cholesky instance, unrenamed: 10×10
   tiled Cholesky (220 tasks) on 4 processors, the workload's 6-level
   menu, D = 1.6 × the fmax makespan.  A 1,150-row LP. *)
let solve_large_menu () =
  let rng = Es_util.Rng.create ~seed:0 in
  let fmax = Es_util.Rng.uniform_in rng 1. 3. in
  let fmin = fmax *. Es_util.Rng.uniform_in rng 0.15 0.4 in
  let step = (fmax -. fmin) /. 5. in
  Array.init 6 (fun i ->
      if i = 0 then fmin
      else if i = 5 then fmax
      else fmin +. (step *. (float_of_int i +. Es_util.Rng.uniform_in rng (-0.4) 0.4)))

(* The cold solve starts from the dual-feasible crash basis (no phase
   1, no fallback to the two-phase solve), and its pivots reuse the
   solve's buffers.  Words allocated straight on the major heap —
   arrays past the minor heap's 256-word limit, such as any m-long
   float array — are then a per-solve cost: measured 213 per pivot
   over 713 pivots, against 5,468 over 2,115 two-phase pivots (about
   4.75 m-long arrays each) when every pivot allocated its FTRAN and
   BTRAN results.  The bound is half of one m-long array. *)
let test_crash_start_allocation () =
  let module Obs = Es_obs.Obs in
  let levels = solve_large_menu () in
  let mapping =
    List_sched.schedule (Generators.cholesky ~n:10) ~p:4 ~priority:List_sched.Bottom_level
  in
  let deadline =
    1.6 *. List_sched.makespan_at_speed mapping ~f:levels.(Array.length levels - 1)
  in
  let m = Es_lp.Problem.n_constraints (Bicrit_vdd.lp ~deadline ~levels mapping) in
  let pivots = Obs.counter "simplex_pivots" in
  let phase1 = Obs.counter "simplex_phase1_pivots" in
  let fallbacks = Obs.counter "lp_warm_cold_fallbacks" in
  Obs.reset ();
  Obs.enable ();
  Fun.protect ~finally:(fun () -> Obs.disable ()) @@ fun () ->
  let _, promoted0, major0 = Gc.counters () in
  let sched = Bicrit_vdd.solve ~deadline ~levels mapping in
  let _, promoted1, major1 = Gc.counters () in
  Alcotest.(check bool) "feasible" true (sched <> None);
  Alcotest.(check int) "no phase-1 pivots" 0 (Obs.value phase1);
  Alcotest.(check int) "no fallback" 0 (Obs.value fallbacks);
  let direct = major1 -. major0 -. (promoted1 -. promoted0) in
  let per_pivot = direct /. float_of_int (Obs.value pivots) in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f major-heap words per pivot (%d pivots) < m/2 = %d" per_pivot
       (Obs.value pivots) (m / 2))
    true
    (per_pivot < float_of_int m /. 2.)

let suite =
  ( "bicrit-vdd",
    [
      Alcotest.test_case "lp feasible schedule" `Quick test_lp_feasible_schedule;
      Alcotest.test_case "lp infeasible detected" `Quick test_lp_infeasible_detected;
      Alcotest.test_case "crash start allocation" `Quick test_crash_start_allocation;
      Alcotest.test_case "two-speed support" `Quick test_two_speed_support;
      Alcotest.test_case "cont <= vdd <= discrete" `Slow test_lp_between_continuous_and_discrete;
      Alcotest.test_case "more levels help" `Quick test_lp_tightens_with_more_levels;
      Alcotest.test_case "emulation time-exact" `Quick test_emulation_time_exact;
      Alcotest.test_case "emulation energy sandwich" `Quick test_emulation_energy_sandwich;
      Alcotest.test_case "single task analytic mix" `Quick test_single_task_exact_mix;
      QCheck_alcotest.to_alcotest qcheck_vdd_below_best_single_speed;
    ] )
