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

let failed_attempts (t : Sim.trace) =
  List.length (List.filter (fun (e : Sim.event) -> e.failed) t.Sim.events)

let test_single_run_consistency () =
  (* one attempt per task: the run succeeds iff no attempt failed, and
     every task runs its only attempt, so the realised makespan is the
     worst case *)
  let s = chain_schedule ~speed:1.0 in
  let t = Sim.trace (Es_util.Rng.create ~seed:106) ~rel s in
  Alcotest.(check bool) "faults consistent with success" true
    ((failed_attempts t = 0) = t.Sim.success);
  Alcotest.(check (float 1e-9)) "realised = worst-case makespan" (Schedule.makespan s)
    t.Sim.makespan;
  Alcotest.(check bool) "energy positive" true (t.Sim.energy > 0.)

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

(* bench/par's Monte-Carlo workload: a 12-task chain at speed 0.6 on
   one processor, 20,000 trials. *)
let bench_rel = Rel.make ~lambda0:1e-5 ~sensitivity:3. ~fmin:0.2 ~fmax:1.0 ~frel:0.8 ()

let bench_schedule () =
  let rng = Es_util.Rng.create ~seed:12 in
  let dag = Generators.chain rng ~n:12 ~wlo:0.5 ~whi:3. in
  Schedule.of_speeds (Mapping.single_processor dag) ~speeds:(Array.make (Dag.n dag) 0.6)

let bench_report () =
  Sim.monte_carlo_par (Es_util.Rng.create ~seed:13) ~rel:bench_rel ~trials:20_000
    (bench_schedule ())

(* Every field of the report, bit for bit (success 0.9977, faults
   0.0023, energy 8.807268955, makespan 40.774393311). *)
let test_monte_carlo_pinned () =
  let r = bench_report () in
  let bits name expected actual =
    Alcotest.(check string) name (Printf.sprintf "%h" expected) (Printf.sprintf "%h" actual)
  in
  Alcotest.(check int) "trials" 20_000 r.Sim.trials;
  bits "success rate" 0x1.fed288ce703bp-1 r.Sim.success_rate;
  bits "mean faults" 0x1.2d77318fc5048p-9 r.Sim.mean_faults;
  bits "mean makespan" 0x1.4631f51ecbbfp+5 r.Sim.mean_realised_makespan;
  bits "max makespan" 0x1.4631f51ecbbb3p+5 r.Sim.max_realised_makespan;
  bits "mean energy" 0x1.19d525b435295p+3 r.Sim.mean_realised_energy;
  bits "worst-case makespan" 0x1.4631f51ecbbb3p+5 r.Sim.worst_case_makespan;
  bits "worst-case energy" 0x1.19d525b43524dp+3 r.Sim.worst_case_energy;
  let a = 0x1.a36e2eb1c432dp-15 and b = 0x1.3a92a30553261p-13 and c = 0x1.a36e2eb1c432dp-14 in
  let d = 0x1.a36e2eb1c432dp-12 in
  Array.iteri
    (fun i expected -> bits (Printf.sprintf "task %d failure rate" i) expected r.Sim.task_failure_rate.(i))
    [| b; a; 0x1.0624dd2f1a9fcp-12; 0x1.6f0068db8bac7p-12; b; c; b; d; b; c; d; a |]

(* A trial replays the schedule's attempt table: it allocates its
   draws' boxed results and the critical path's start times, never an
   attempt's time, energy or failure probability, nor the generator's
   state. *)
let test_trial_allocation () =
  ignore (bench_report ());
  Gc.minor ();
  let before = (Gc.quick_stat ()).Gc.minor_words in
  ignore (Sys.opaque_identity (bench_report ()));
  Gc.minor ();
  let words = (Gc.quick_stat ()).Gc.minor_words -. before in
  let per_task = words /. 20_000. /. 12. in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f minor words per task per trial <= 12" per_task)
    true (per_task <= 12.)

(* Random schedules over Es_check.Gen instances: each task runs at
   levels of the instance's grid, about half of them twice, and an
   attempt is split over two levels half the time, as under
   VDD-HOPPING.  The rate makes faults common: lambda0 = 0.05 over the
   grid's range. *)
let qcheck_traced_runs =
  let open QCheck2 in
  let gen = Gen.pair (Qgen.qgen ()) (Gen.int_bound 1_000_000) in
  let print (inst, seed) = Printf.sprintf "%s\nschedule seed %d" (Qgen.qprint inst) seed in
  Test.make ~name:"traced runs: attempts back to back, a 2nd iff the 1st failed" ~count:200
    ~print gen (fun (inst, seed) ->
      let module G = Es_check.Gen in
      let r = Es_util.Rng.create ~seed in
      let m = G.mapping inst in
      let dag = Mapping.dag m in
      let level () = Es_util.Rng.choice r inst.G.levels in
      let execution w : Schedule.execution =
        let f = level () in
        if Es_util.Rng.bool r then [ { speed = f; time = w /. f } ]
        else begin
          let g = level () and a = Es_util.Rng.uniform_in r 0.2 0.8 in
          [ { speed = f; time = a *. w /. f }; { speed = g; time = (1. -. a) *. w /. g } ]
        end
      in
      let executions =
        Array.init (Dag.n dag) (fun i ->
            let w = Dag.weight dag i in
            if Es_util.Rng.bool r then [ execution w; execution w ] else [ execution w ])
      in
      let sched = Schedule.make m ~executions in
      let rel = Rel.make ~lambda0:0.05 ~fmin:(G.fmin inst) ~fmax:(G.fmax inst) () in
      let t = Sim.trace (Es_util.Rng.create ~seed:(seed + 1)) ~rel sched in
      let n = Dag.n dag in
      let by_task = Array.make n [] in
      List.iter (fun (e : Sim.event) -> by_task.(e.task) <- e :: by_task.(e.task)) t.Sim.events;
      let durations = Array.make n 0. and energy = ref 0. and success = ref true in
      let first_start = Array.make n nan and ok = ref true in
      for i = 0 to n - 1 do
        let attempts =
          List.sort (fun (a : Sim.event) b -> Int.compare a.attempt b.attempt) by_task.(i)
        in
        let execs = Array.of_list (Schedule.executions sched i) in
        (* attempts 1 .. k ran, back to back; each but the last failed,
           and the last failed only when no attempt is left *)
        let rec walk k prev = function
          | [] -> ()
          | (e : Sim.event) :: rest ->
            let last = rest = [] in
            let time = Schedule.exec_time execs.(k - 1) in
            if e.attempt <> k then ok := false;
            (match prev with
            | Some (p : Sim.event) -> if not (Float.equal e.start p.finish) then ok := false
            | None -> first_start.(i) <- e.start);
            if not (Float.equal e.finish (e.start +. time)) then ok := false;
            if (not last) && not e.failed then ok := false;
            if last && e.failed && k < Array.length execs then ok := false;
            if last && e.failed then success := false;
            durations.(i) <- durations.(i) +. time;
            energy := !energy +. Schedule.exec_energy execs.(k - 1);
            walk (k + 1) (Some e) rest
        in
        if attempts = [] then ok := false;
        walk 1 None attempts
      done;
      (* the first attempts start at the earliest starts of the
         realised durations, and the makespan is their critical path *)
      let cdag = Mapping.constraint_dag m in
      let starts = Dag.earliest_start cdag ~durations in
      let makespan = Dag.critical_path_length cdag ~durations in
      !ok
      && Array.for_all2 (fun a b -> Float.equal a b) starts first_start
      && Bool.equal !success t.Sim.success
      && Int64.equal (Int64.bits_of_float !energy) (Int64.bits_of_float t.Sim.energy)
      && Int64.equal (Int64.bits_of_float makespan) (Int64.bits_of_float t.Sim.makespan))

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
      Alcotest.test_case "Monte-Carlo report pinned bit for bit" `Quick test_monte_carlo_pinned;
      Alcotest.test_case "a trial allocates <= 12 words per task" `Quick test_trial_allocation;
      QCheck_alcotest.to_alcotest qcheck_traced_runs;
    ] )
