(* Tests for the fault-injection simulator: empirical failure rates
   must match the analytic Eq. (1) quantities, re-execution must absorb
   faults, and the realised timeline must never exceed the worst
   case. *)

(* a large lambda0 so failures are measurable with 10^4..10^5 trials *)
let rel = Rel.make ~lambda0:0.05 ~sensitivity:3. ~fmin:0.2 ~fmax:1.0 ~frel:0.8 ()

let chain_schedule ~speed =
  let rng = Es_util.Rng.create ~seed:101 in
  let d = Generators.chain rng ~n:5 ~wlo:0.5 ~whi:1.5 in
  let m = Mapping.single_processor d in
  Schedule.uniform m ~speed

let test_analytic_failure_matches_formula () =
  let s = chain_schedule ~speed:0.5 in
  let d = Schedule.dag s in
  for i = 0 to Dag.n d - 1 do
    let expected = Rel.failure_prob rel ~f:0.5 ~w:(Dag.weight d i) in
    Alcotest.(check (float 1e-12))
      "analytic" expected
      (Sim.analytic_task_failure ~rel s i)
  done

let test_empirical_matches_analytic () =
  let s = chain_schedule ~speed:0.5 in
  let rng = Es_util.Rng.create ~seed:102 in
  let report = Sim.monte_carlo_par rng ~rel ~trials:40_000 s in
  let d = Schedule.dag s in
  for i = 0 to Dag.n d - 1 do
    let analytic = Sim.analytic_task_failure ~rel s i in
    let measured = report.Sim.task_failure_rate.(i) in
    Alcotest.(check bool)
      (Printf.sprintf "task %d: |%.4f - %.4f| small" i measured analytic)
      true
      (Float.abs (measured -. analytic) < 0.01)
  done

let test_reexecution_absorbs_faults () =
  let s = chain_schedule ~speed:0.5 in
  let d = Schedule.dag s in
  (* re-execute every task at the same speed *)
  let s2 =
    List.fold_left
      (fun acc i ->
        match Schedule.executions acc i with
        | e :: _ -> Schedule.with_execs acc i [ e; e ]
        | [] -> acc)
      s
      (List.init (Dag.n d) Fun.id)
  in
  let rng = Es_util.Rng.create ~seed:103 in
  let r1 = Sim.monte_carlo_par rng ~rel ~trials:20_000 s in
  let r2 = Sim.monte_carlo_par rng ~rel ~trials:20_000 s2 in
  Alcotest.(check bool) "re-execution helps" true
    (r2.Sim.success_rate > r1.Sim.success_rate);
  (* each task failure should drop roughly to eps² *)
  for i = 0 to Dag.n d - 1 do
    Alcotest.(check bool) "squared failure" true
      (r2.Sim.task_failure_rate.(i) <= r1.Sim.task_failure_rate.(i) +. 1e-6)
  done

let test_realised_never_exceeds_worst_case () =
  let s = chain_schedule ~speed:0.5 in
  let d = Schedule.dag s in
  let s2 =
    List.fold_left
      (fun acc i ->
        match Schedule.executions acc i with
        | e :: _ -> Schedule.with_execs acc i [ e; e ]
        | [] -> acc)
      s
      (List.init (Dag.n d) Fun.id)
  in
  let rng = Es_util.Rng.create ~seed:104 in
  let report = Sim.monte_carlo_par rng ~rel ~trials:5_000 s2 in
  Alcotest.(check bool) "makespan bounded" true
    (report.Sim.max_realised_makespan <= report.Sim.worst_case_makespan +. 1e-9);
  Alcotest.(check bool) "energy bounded" true
    (report.Sim.mean_realised_energy <= report.Sim.worst_case_energy +. 1e-9)

let test_faster_is_more_reliable () =
  let slow = chain_schedule ~speed:0.3 in
  let fast = chain_schedule ~speed:1.0 in
  let rng = Es_util.Rng.create ~seed:105 in
  let rs = Sim.monte_carlo_par rng ~rel ~trials:20_000 slow in
  let rf = Sim.monte_carlo_par rng ~rel ~trials:20_000 fast in
  Alcotest.(check bool) "DVFS hurts reliability" true
    (rf.Sim.success_rate > rs.Sim.success_rate)

let test_single_run_consistency () =
  let s = chain_schedule ~speed:1.0 in
  let rng = Es_util.Rng.create ~seed:106 in
  let r = Sim.run rng ~rel s in
  Alcotest.(check bool) "faults consistent with success" true
    ((r.Sim.faults = 0) = (r.Sim.realised_makespan <= Schedule.makespan s +. 1e-9)
    || r.Sim.faults > 0);
  Alcotest.(check bool) "energy positive" true (r.Sim.realised_energy > 0.)

let test_zero_fault_rate () =
  let safe = Rel.make ~lambda0:0. ~sensitivity:3. ~fmin:0.2 ~fmax:1.0 () in
  let s = chain_schedule ~speed:0.5 in
  let rng = Es_util.Rng.create ~seed:107 in
  let report = Sim.monte_carlo_par rng ~rel:safe ~trials:1_000 s in
  Alcotest.(check (float 1e-12)) "always succeeds" 1. report.Sim.success_rate;
  Alcotest.(check (float 1e-12)) "no faults" 0. report.Sim.mean_faults

let test_deterministic_given_seed () =
  let s = chain_schedule ~speed:0.5 in
  let r1 = Sim.monte_carlo_par (Es_util.Rng.create ~seed:1) ~rel ~trials:2_000 s in
  let r2 = Sim.monte_carlo_par (Es_util.Rng.create ~seed:1) ~rel ~trials:2_000 s in
  Alcotest.(check (float 0.)) "same success rate" r1.Sim.success_rate r2.Sim.success_rate;
  Alcotest.(check (float 0.)) "same mean energy" r1.Sim.mean_realised_energy
    r2.Sim.mean_realised_energy

let test_executionless_task_rejected () =
  (* Sim raises Invalid_argument on a task with no attempts; the
     schedule layer upholds the same invariant at construction time,
     so such a schedule cannot even be built through the public API *)
  let s = chain_schedule ~speed:0.5 in
  Alcotest.(check bool) "executionless schedule is unconstructible" true
    (match Schedule.with_execs s 0 [] with
    | exception Invalid_argument _ -> true
    | _ -> false)

let suite =
  ( "sim",
    [
      Alcotest.test_case "analytic failure formula" `Quick test_analytic_failure_matches_formula;
      Alcotest.test_case "empirical matches analytic" `Slow test_empirical_matches_analytic;
      Alcotest.test_case "re-execution absorbs faults" `Slow test_reexecution_absorbs_faults;
      Alcotest.test_case "realised <= worst case" `Quick test_realised_never_exceeds_worst_case;
      Alcotest.test_case "faster is more reliable" `Slow test_faster_is_more_reliable;
      Alcotest.test_case "single run consistency" `Quick test_single_run_consistency;
      Alcotest.test_case "zero fault rate" `Quick test_zero_fault_rate;
      Alcotest.test_case "deterministic given seed" `Quick test_deterministic_given_seed;
      Alcotest.test_case "executionless task rejected" `Quick
        test_executionless_task_rejected;
    ] )
