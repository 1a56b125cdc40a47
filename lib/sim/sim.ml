module Rng = Es_util.Rng
module Obs = Es_obs.Obs

type run = {
  success : bool;
  faults : int;
  realised_makespan : float;
  realised_energy : float;
}

let c_trials = Obs.counter "sim_trials"
let t_monte_carlo = Obs.timer "sim_monte_carlo"

let attempt_failure ~rel e =
  let parts = List.map (fun (p : Schedule.part) -> (p.speed, p.time)) e in
  Es_util.Futil.clamp ~lo:0. ~hi:1. (Rel.vdd_failure rel ~parts)

let analytic_task_failure ~rel sched i =
  List.fold_left
    (fun acc e -> acc *. attempt_failure ~rel e)
    1. (Schedule.executions sched i)

(* Replay one task: walk its attempts until one succeeds, accumulating
   the realised duration/energy of every attempt that ran.  Returns
   [true] iff some attempt succeeded.  A task without executions is a
   malformed schedule, not a failed one. *)
let replay_task rng ~rel ~durations ~energy ~faults i = function
  | [] -> invalid_arg "Sim: task has no executions"
  | executions ->
    let rec attempts = function
      | [] -> false
      | e :: rest ->
        durations.(i) <- durations.(i) +. Schedule.exec_time e;
        energy := !energy +. Schedule.exec_energy e;
        if Rng.bernoulli rng (attempt_failure ~rel e) then begin
          incr faults;
          attempts rest
        end
        else true
    in
    attempts executions

let run rng ~rel sched =
  let dag = Schedule.dag sched in
  let cdag = Mapping.constraint_dag (Schedule.mapping sched) in
  let n = Dag.n dag in
  let faults = ref 0 in
  let all_ok = ref true in
  (* realised duration and energy of every task in this run *)
  let durations = Array.make n 0. in
  let energy = ref 0. in
  for i = 0 to n - 1 do
    let ok =
      replay_task rng ~rel ~durations ~energy ~faults i (Schedule.executions sched i)
    in
    if not ok then all_ok := false
  done;
  let realised_makespan = Dag.critical_path_length cdag ~durations in
  { success = !all_ok; faults = !faults; realised_makespan; realised_energy = !energy }

type report = {
  trials : int;
  success_rate : float;
  task_failure_rate : float array;
  mean_faults : float;
  mean_realised_makespan : float;
  max_realised_makespan : float;
  mean_realised_energy : float;
  worst_case_makespan : float;
  worst_case_energy : float;
}

(* Partial tallies: one per replica, mergeable with [merge_tally] so
   the parallel driver can combine them in replica order.  All
   accumulators are plain sums — merging is exact and associative up
   to float addition order, which the driver fixes deterministically. *)
type tally = {
  t_trials : int;
  t_successes : int;
  t_task_failures : int array;
  t_faults : int;
  t_sum_ms : float;
  t_sum_en : float;
  t_max_ms : float;
}

let run_tally rng ~rel ~trials sched =
  let dag = Schedule.dag sched in
  let cdag = Mapping.constraint_dag (Schedule.mapping sched) in
  let n = Dag.n dag in
  let task_failures = Array.make n 0 in
  let successes = ref 0 in
  let total_faults = ref 0 in
  let sum_ms = ref 0. in
  let sum_en = ref 0. in
  let max_ms = ref 0. in
  let durations = Array.make n 0. in
  for _ = 1 to trials do
    Obs.incr c_trials;
    Array.fill durations 0 n 0.;
    let energy = ref 0. and all_ok = ref true in
    for i = 0 to n - 1 do
      if
        not
          (replay_task rng ~rel ~durations ~energy ~faults:total_faults i
             (Schedule.executions sched i))
      then begin
        all_ok := false;
        task_failures.(i) <- task_failures.(i) + 1
      end
    done;
    if !all_ok then incr successes;
    let m = Dag.critical_path_length cdag ~durations in
    if m > !max_ms then max_ms := m;
    sum_ms := !sum_ms +. m;
    sum_en := !sum_en +. !energy
  done;
  {
    t_trials = trials;
    t_successes = !successes;
    t_task_failures = task_failures;
    t_faults = !total_faults;
    t_sum_ms = !sum_ms;
    t_sum_en = !sum_en;
    t_max_ms = !max_ms;
  }

let merge_tally a b =
  {
    t_trials = a.t_trials + b.t_trials;
    t_successes = a.t_successes + b.t_successes;
    t_task_failures = Array.map2 ( + ) a.t_task_failures b.t_task_failures;
    t_faults = a.t_faults + b.t_faults;
    t_sum_ms = a.t_sum_ms +. b.t_sum_ms;
    t_sum_en = a.t_sum_en +. b.t_sum_en;
    t_max_ms = Float.max a.t_max_ms b.t_max_ms;
  }

let report_of_tally sched t =
  let ftrials = float_of_int t.t_trials in
  {
    trials = t.t_trials;
    success_rate = float_of_int t.t_successes /. ftrials;
    task_failure_rate =
      Array.map (fun c -> float_of_int c /. ftrials) t.t_task_failures;
    mean_faults = float_of_int t.t_faults /. ftrials;
    mean_realised_makespan = t.t_sum_ms /. ftrials;
    max_realised_makespan = t.t_max_ms;
    mean_realised_energy = t.t_sum_en /. ftrials;
    worst_case_makespan = Schedule.makespan sched;
    worst_case_energy = Schedule.energy sched;
  }

let monte_carlo rng ~rel ~trials sched =
  assert (trials > 0);
  Obs.time t_monte_carlo @@ fun () ->
  report_of_tally sched (run_tally rng ~rel ~trials sched)

let default_replicas = 16

let monte_carlo_par ?pool ?(replicas = default_replicas) rng ~rel ~trials sched =
  if trials <= 0 then invalid_arg "Sim.monte_carlo_par: trials must be > 0";
  if replicas < 1 then invalid_arg "Sim.monte_carlo_par: replicas must be >= 1";
  Obs.time t_monte_carlo @@ fun () ->
  let replicas = min replicas trials in
  let base = trials / replicas and rem = trials mod replicas in
  (* split the replica streams in an explicit left-to-right loop: the
     split order is part of the determinism contract *)
  let plan =
    let rec go i acc =
      if i = replicas then List.rev acc
      else
        go (i + 1)
          ((Rng.split rng, base + (if i < rem then 1 else 0)) :: acc)
    in
    go 0 []
  in
  let tallies =
    Es_par.Par.parallel_map ?pool ~chunk:1
      (fun (rng, trials) -> run_tally rng ~rel ~trials sched)
      plan
  in
  match tallies with
  | [] -> assert false (* replicas >= 1 *)
  | first :: rest -> report_of_tally sched (List.fold_left merge_tally first rest)
