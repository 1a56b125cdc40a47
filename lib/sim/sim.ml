module Rng = Es_util.Rng
module Obs = Es_obs.Obs

let c_trials = Obs.counter "sim_trials"
let t_monte_carlo = Obs.timer "sim_monte_carlo"

let attempt_failure ~rel e =
  let parts = List.map (fun (p : Schedule.part) -> (p.speed, p.time)) e in
  Es_util.Futil.clamp ~lo:0. ~hi:1. (Rel.vdd_failure rel ~parts)

let analytic_task_failure ~rel sched i =
  List.fold_left
    (fun acc e -> acc *. attempt_failure ~rel e)
    1. (Schedule.executions sched i)

(* The attempt table of one schedule: task i's attempts are the
   entries first.(i) .. first.(i + 1) - 1, each with its duration, its
   energy and its Eq. (1) failure probability.  Built once per
   schedule and only read afterwards, so replicas share it. *)
type table = {
  cdag : Dag.t;
  first : int array;
  time : float array;
  energy : float array;
  fail : float array;
}

let table ~rel sched =
  let n = Dag.n (Schedule.dag sched) in
  let attempts = Array.init n (fun i -> Array.of_list (Schedule.executions sched i)) in
  let first = Array.make (n + 1) 0 in
  Array.iteri (fun i a -> first.(i + 1) <- first.(i) + Array.length a) attempts;
  let all = Array.concat (Array.to_list attempts) in
  {
    cdag = Mapping.constraint_dag (Schedule.mapping sched);
    first;
    time = Array.map Schedule.exec_time all;
    energy = Array.map Schedule.exec_energy all;
    fail = Array.map (attempt_failure ~rel) all;
  }

(* One run: each task's attempts run in order until one succeeds, one
   Bernoulli draw per attempt that runs.  Writes each task's realised
   duration to [durations] and the number of its attempts that failed
   to [faults] (those ran first, and the next one, if any, succeeded);
   returns the realised energy.  Allocates nothing but the draws'
   generator state. *)
let replay t rng ~durations ~faults =
  let energy = ref 0. in
  for i = 0 to Array.length durations - 1 do
    let k = ref t.first.(i) and ok = ref false and d = ref 0. in
    while (not !ok) && !k < t.first.(i + 1) do
      d := !d +. t.time.(!k);
      energy := !energy +. t.energy.(!k);
      ok := not (Rng.bernoulli rng t.fail.(!k));
      incr k
    done;
    durations.(i) <- !d;
    faults.(i) <- !k - t.first.(i) - Bool.to_int !ok
  done;
  !energy

let attempts t i = t.first.(i + 1) - t.first.(i)

type event = {
  task : Dag.task;
  attempt : int;
  start : float;
  finish : float;
  failed : bool;
}

type trace = { events : event list; success : bool; makespan : float; energy : float }

let trace rng ~rel sched =
  let t = table ~rel sched in
  let n = Dag.n t.cdag in
  let durations = Array.make n 0. and faults = Array.make n 0 in
  let energy = replay t rng ~durations ~faults in
  (* start times from the realised durations; a task's attempts run
     back to back *)
  let starts = Dag.earliest_start t.cdag ~durations in
  let events = ref [] and success = ref true in
  (* tasks in ascending order before the stable sort, so that events
     starting together keep task order *)
  for i = n - 1 downto 0 do
    if faults.(i) = attempts t i then success := false;
    let start = ref starts.(i) in
    for a = 1 to min (faults.(i) + 1) (attempts t i) do
      let finish = !start +. t.time.(t.first.(i) + a - 1) in
      let failed = a <= faults.(i) in
      events := { task = i; attempt = a; start = !start; finish; failed } :: !events;
      start := finish
    done
  done;
  let events = List.sort (fun a b -> Float.compare a.start b.start) !events in
  let makespan = Dag.critical_path_length t.cdag ~durations in
  { events; success = !success; makespan; energy }

let width = 72

let render_trace sched t =
  let mapping = Schedule.mapping sched in
  let horizon = Float.max t.makespan 1e-9 in
  let col x = int_of_float (float_of_int width *. x /. horizon) in
  let buf = Buffer.create 512 in
  for k = 0 to Mapping.p mapping - 1 do
    let row = Bytes.make (width + 1) '.' in
    List.iter
      (fun ev ->
        if Mapping.proc_of mapping ev.task = k then begin
          let letter =
            if ev.failed then 'x'
            else if ev.attempt = 2 then '*'
            else Char.chr (Char.code 'A' + (ev.task mod 26))
          in
          for x = max 0 (col ev.start) to min width (col ev.finish - 1) do
            Bytes.set row x letter
          done
        end)
      t.events;
    Buffer.add_string buf (Printf.sprintf "P%-2d %s\n" k (Bytes.to_string row))
  done;
  Buffer.add_string buf
    (Printf.sprintf "    0%s%.3g  %s\n"
       (String.make (max 0 (width - 8)) ' ')
       horizon
       (if t.success then "(success)" else "(FAILED)"));
  Buffer.contents buf

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

let run_tally t rng ~trials =
  let n = Dag.n t.cdag in
  let task_failures = Array.make n 0 in
  let successes = ref 0 in
  let total_faults = ref 0 in
  let sum_ms = ref 0. in
  let sum_en = ref 0. in
  let max_ms = ref 0. in
  let durations = Array.make n 0. and faults = Array.make n 0 in
  for _ = 1 to trials do
    Obs.incr c_trials;
    let energy = replay t rng ~durations ~faults in
    let all_ok = ref true in
    for i = 0 to n - 1 do
      total_faults := !total_faults + faults.(i);
      if faults.(i) = attempts t i then begin
        all_ok := false;
        task_failures.(i) <- task_failures.(i) + 1
      end
    done;
    if !all_ok then incr successes;
    let m = Dag.critical_path_length t.cdag ~durations in
    if m > !max_ms then max_ms := m;
    sum_ms := !sum_ms +. m;
    sum_en := !sum_en +. energy
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

let replicas = 16

let monte_carlo_par ?pool rng ~rel ~trials sched =
  if trials <= 0 then invalid_arg "Sim.monte_carlo_par: trials must be > 0";
  Obs.time t_monte_carlo @@ fun () ->
  let t = table ~rel sched in
  let replicas = min replicas trials in
  let base = trials / replicas and rem = trials mod replicas in
  let sizes = List.init replicas (fun i -> base + if i < rem then 1 else 0) in
  let tallies =
    Es_par.Par.map_seeded ?pool ~rng (fun rng trials -> run_tally t rng ~trials) sizes
  in
  match tallies with
  | [] -> assert false (* replicas >= 1 *)
  | first :: rest -> report_of_tally sched (List.fold_left merge_tally first rest)
