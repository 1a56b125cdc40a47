(* esched: command-line front end to the library.

   Subcommands:
     generate  — build a workload DAG and print it (DOT or summary)
     solve     — map a DAG and minimise energy under a speed model,
                 optionally with the TRI-CRIT reliability constraint
     simulate  — Monte-Carlo fault injection on the solved schedule
     demo      — the full pipeline on one instance, with a Gantt chart *)

module Rng = Es_util.Rng
module Obs = Es_obs.Obs
module Pool = Es_par.Pool

(* `--jobs N`: worker domains for the sweep subcommands (pareto,
   simulate).  Lazy pool, shut down when the command finishes; results
   are identical for every N by the lib/par determinism contract. *)
let jobs = ref 1

let pool : Pool.t option ref = ref None
let current_pool () = !pool

(* Run [f] with the worker pool installed for its dynamic extent
   (when [--jobs N] asks for more than one domain); [Pool.with_pool]
   owns the shutdown on both the normal and the exceptional path. *)
let with_jobs f =
  if !jobs <= 1 then f ()
  else
    Pool.with_pool ~domains:!jobs (fun p ->
        pool := Some p;
        Fun.protect ~finally:(fun () -> pool := None) f)

(* `--stats`: enable telemetry around the run, render it afterwards *)
let with_stats stats f =
  if stats then Obs.enable ();
  Fun.protect
    ~finally:(fun () -> if stats then Obs.disable ())
    (fun () ->
      let code = with_jobs f in
      if stats then begin
        print_newline ();
        print_string (Obs.render_text (Obs.snapshot ()))
      end;
      code)

(* The subcommands' phases, listed by `--stats` under these names *)
let solve_timer = Obs.timer "esched.solve"
let validate_timer = Obs.timer "esched.validate"
let heuristics_timer = Obs.timer "esched.heuristics"
let monte_carlo_timer = Obs.timer "esched.monte_carlo"

let fmin = 0.2
let fmax = 1.0

type workload = Chain | Fork | Fork_join | Layered | Stencil | Lu | Fft

let workload_conv =
  Cmdliner.Arg.enum
    [
      ("chain", Chain); ("fork", Fork); ("fork-join", Fork_join);
      ("layered", Layered); ("stencil", Stencil); ("lu", Lu); ("fft", Fft);
    ]

let build_dag kind ~n ~seed =
  let rng = Rng.create ~seed in
  match kind with
  | Chain -> Generators.chain rng ~n ~wlo:0.5 ~whi:3.
  | Fork -> Generators.fork rng ~n ~wlo:0.5 ~whi:3.
  | Fork_join -> Generators.fork_join rng ~n ~wlo:0.5 ~whi:3.
  | Layered ->
    Generators.random_layered rng ~layers:(max 2 (n / 4)) ~width:4 ~density:0.4
      ~wlo:0.5 ~whi:3.
  | Stencil ->
    let side = max 2 (int_of_float (sqrt (float_of_int n))) in
    Generators.stencil ~rows:side ~cols:side
  | Lu -> Generators.lu ~n:(max 2 (int_of_float (Float.cbrt (float_of_int n))))
  | Fft ->
    let levels = max 1 (int_of_float (Float.log2 (float_of_int (max 2 n)) /. 2.)) in
    Generators.fft ~levels

type model_kind = Continuous | Discrete | Vdd | Incremental

let model_conv =
  Cmdliner.Arg.enum
    [
      ("continuous", Continuous); ("discrete", Discrete); ("vdd", Vdd);
      ("incremental", Incremental);
    ]

let levels5 = [| 0.2; 0.4; 0.6; 0.8; 1.0 |]

let speed_model = function
  | Continuous -> Speed.continuous ~fmin ~fmax
  | Discrete -> Speed.discrete levels5
  | Vdd -> Speed.vdd_hopping levels5
  | Incremental -> Speed.incremental ~fmin ~fmax ~delta:0.1

(* --- generate ----------------------------------------------------- *)

let generate kind n seed dot =
  let dag = build_dag kind ~n ~seed in
  if dot then print_string (Dot.of_dag dag)
  else begin
    Printf.printf "tasks: %d, edges: %d, total weight: %.3f\n" (Dag.n dag)
      (Dag.n_edges dag) (Dag.total_weight dag);
    Printf.printf "critical path (at fmax): %.3f\n"
      (Dag.critical_path_length dag
         ~durations:(Array.map (fun w -> w /. fmax) (Dag.weights dag)));
    Format.printf "%a" Dag.pp dag
  end;
  0

(* --- solve -------------------------------------------------------- *)

let solve kind n seed p slack model_kind reliability gantt stats =
  with_stats stats @@ fun () ->
  let dag = build_dag kind ~n ~seed in
  let mapping = List_sched.schedule dag ~p ~priority:List_sched.Bottom_level in
  let dmin = List_sched.makespan_at_speed mapping ~f:fmax in
  let deadline = slack *. dmin in
  Printf.printf "n=%d p=%d Dmin=%.4f deadline=%.4f model=%s%s\n" (Dag.n dag) p dmin
    deadline
    (match model_kind with
    | Continuous -> "continuous" | Discrete -> "discrete" | Vdd -> "vdd-hopping"
    | Incremental -> "incremental")
    (if reliability then " + reliability" else "");
  let request =
    {
      Solver.mapping;
      model = speed_model model_kind;
      deadline;
      rel =
        (if reliability then
           Some (Rel.make ~lambda0:1e-5 ~sensitivity:3. ~fmin ~fmax ~frel:0.8 ())
         else None);
    }
  in
  match Obs.time solve_timer (fun () -> Solver.solve request) with
  | Error msg ->
    print_endline msg;
    1
  | Ok { Solver.schedule = sched; engine; exact; _ } ->
    Printf.printf "engine: %s (%s)\n" engine
      (if exact then "provably optimal" else "heuristic/approximation");
    Printf.printf "energy: %.6f\nworst-case makespan: %.6f\n" (Schedule.energy sched)
      (Schedule.makespan sched);
    let model = speed_model model_kind in
    let rel =
      if reliability then
        Some (Rel.make ~lambda0:1e-5 ~sensitivity:3. ~fmin ~fmax ~frel:0.8 ())
      else None
    in
    let violations =
      Obs.time validate_timer (fun () -> Validate.check ~deadline ?rel ~model sched)
    in
    if violations = [] then print_endline "validation: OK"
    else
      List.iter
        (fun v -> Printf.printf "VIOLATION: %s\n" (Validate.explain dag v))
        violations;
    if gantt then Gantt.print ?width:None ~deadline sched;
    if violations = [] then 0 else 1

(* --- simulate ------------------------------------------------------ *)

let simulate kind n seed p slack trials lambda0 stats j =
  jobs := max 1 j;
  with_stats stats @@ fun () ->
  let dag = build_dag kind ~n ~seed in
  let mapping = List_sched.schedule dag ~p ~priority:List_sched.Bottom_level in
  let dmin = List_sched.makespan_at_speed mapping ~f:fmax in
  let deadline = slack *. dmin in
  let rel = Rel.make ~lambda0 ~sensitivity:3. ~fmin ~fmax ~frel:0.8 () in
  match Obs.time heuristics_timer (fun () -> Heuristics.best_of ~rel ~deadline mapping) with
  | None ->
    print_endline "infeasible";
    1
  | Some (sol, _) ->
    let report =
      Obs.time monte_carlo_timer (fun () ->
          Sim.monte_carlo_par ?pool:(current_pool ())
            (Rng.create ~seed:(seed + 1))
            ~rel ~trials sol.Heuristics.schedule)
    in
    Printf.printf "energy (worst case): %.6f\n" report.Sim.worst_case_energy;
    Printf.printf "success rate: %.5f over %d trials\n" report.Sim.success_rate trials;
    Printf.printf "mean faults/run: %.4f\n" report.Sim.mean_faults;
    Printf.printf "realised makespan: mean %.4f, max %.4f (worst case %.4f)\n"
      report.Sim.mean_realised_makespan report.Sim.max_realised_makespan
      report.Sim.worst_case_makespan;
    Printf.printf "realised energy: mean %.4f (worst case %.4f)\n"
      report.Sim.mean_realised_energy report.Sim.worst_case_energy;
    0

(* --- pareto --------------------------------------------------------- *)

let pareto kind n seed p reliability vdd cold stats j =
  jobs := max 1 j;
  with_stats stats @@ fun () ->
  let dag = build_dag kind ~n ~seed in
  let mapping = List_sched.schedule dag ~p ~priority:List_sched.Bottom_level in
  let dmin = List_sched.makespan_at_speed mapping ~f:fmax in
  let deadlines =
    List.map (fun s -> s *. dmin) [ 1.05; 1.2; 1.5; 2.; 2.5; 3.; 4.; 6. ]
  in
  let points =
    if reliability then begin
      let rel = Rel.make ~lambda0:1e-5 ~sensitivity:3. ~fmin ~fmax ~frel:0.8 () in
      Pareto.tricrit_front ?pool:(current_pool ()) ~rel ~deadlines mapping
    end
    else if vdd then
      Pareto.bicrit_vdd_front ?pool:(current_pool ()) ~warm:(not cold)
        ~levels:levels5 ~deadlines mapping
    else Pareto.bicrit_front ?pool:(current_pool ()) ~fmin ~fmax ~deadlines mapping
  in
  let table = Es_util.Table.create ~columns:[ "D/Dmin"; "energy"; "#re-executed" ] in
  List.iter
    (fun pt ->
      Es_util.Table.add_row table
        [
          Printf.sprintf "%.2f" (pt.Pareto.deadline /. dmin);
          Printf.sprintf "%.5f" pt.Pareto.energy;
          string_of_int pt.Pareto.n_reexecuted;
        ])
    points;
  Es_util.Table.print
    ~caption:
      (Printf.sprintf "Energy/deadline front (%s)"
         (if reliability then "TRI-CRIT, best-of heuristics"
          else if vdd then
            Printf.sprintf "BI-CRIT, vdd-hopping LP, %s starts"
              (if cold then "cold" else "warm")
          else "BI-CRIT, continuous"))
    table;
  if Pareto.is_front points then 0
  else begin
    prerr_endline "warning: dominated point in the sweep";
    1
  end

(* --- demo ---------------------------------------------------------- *)

let demo seed =
  let rng = Rng.create ~seed in
  let dag = Generators.random_layered rng ~layers:4 ~width:3 ~density:0.5 ~wlo:1. ~whi:3. in
  let mapping = List_sched.schedule dag ~p:3 ~priority:List_sched.Bottom_level in
  let dmin = List_sched.makespan_at_speed mapping ~f:fmax in
  let deadline = 2. *. dmin in
  let rel = Rel.make ~lambda0:1e-5 ~sensitivity:3. ~fmin ~fmax ~frel:0.8 () in
  Printf.printf "DAG: %d tasks, %d edges on 3 processors; Dmin=%.3f, D=%.3f\n\n"
    (Dag.n dag) (Dag.n_edges dag) dmin deadline;
  (match Bicrit_continuous.solve ~deadline ~fmin ~fmax mapping with
  | Some s -> Printf.printf "BI-CRIT continuous optimum: E = %.5f\n" (Schedule.energy s)
  | None -> print_endline "BI-CRIT infeasible");
  (match Heuristics.best_of ~rel ~deadline mapping with
  | Some (sol, who) ->
    Printf.printf "TRI-CRIT best-of heuristics:  E = %.5f (winner: %s)\n\n"
      sol.Heuristics.energy
      (Heuristics.winner_name who);
    Gantt.print ?width:None ~deadline sol.Heuristics.schedule
  | None -> print_endline "TRI-CRIT infeasible");
  0

(* --- cmdliner ------------------------------------------------------ *)

open Cmdliner

let kind_arg =
  Arg.(value & opt workload_conv Layered & info [ "workload"; "w" ] ~docv:"KIND"
         ~doc:"Workload: chain, fork, fork-join, layered, stencil, lu, fft.")

let n_arg = Arg.(value & opt int 16 & info [ "n" ] ~docv:"N" ~doc:"Workload size.")
let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")
let p_arg = Arg.(value & opt int 4 & info [ "p" ] ~docv:"P" ~doc:"Processor count.")

let slack_arg =
  Arg.(value & opt float 2. & info [ "slack" ] ~docv:"S"
         ~doc:"Deadline as a multiple of the fmax makespan.")

let stats_arg =
  Arg.(value & flag & info [ "stats" ]
         ~doc:"Print solver telemetry (counters, solver and per-phase timers) after the run.")

let jobs_arg =
  Arg.(
    value
    (* sizing query for the CLI default — no domain is spawned here *)
    & opt int (Domain.recommended_domain_count () [@lint.allow "P004"])
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Worker domains for the sweep (default: the recommended domain count \
           of this machine).  Output is identical for every $(docv); 1 runs \
           fully sequentially.")

let generate_cmd =
  let dot = Arg.(value & flag & info [ "dot" ] ~doc:"Emit Graphviz DOT.") in
  Cmd.v (Cmd.info "generate" ~doc:"Generate a workload DAG")
    Term.(const generate $ kind_arg $ n_arg $ seed_arg $ dot)

let solve_cmd =
  let model =
    Arg.(value & opt model_conv Continuous & info [ "model"; "m" ] ~docv:"MODEL"
           ~doc:"Speed model: continuous, discrete, vdd, incremental.")
  in
  let reliability =
    Arg.(value & flag & info [ "reliability"; "r" ]
           ~doc:"Enforce the TRI-CRIT reliability constraint (with re-execution).")
  in
  let gantt = Arg.(value & flag & info [ "gantt" ] ~doc:"Print an ASCII Gantt chart.") in
  Cmd.v (Cmd.info "solve" ~doc:"Minimise energy under a deadline")
    Term.(const solve $ kind_arg $ n_arg $ seed_arg $ p_arg $ slack_arg $ model
          $ reliability $ gantt $ stats_arg)

let simulate_cmd =
  let trials =
    Arg.(value & opt int 10_000 & info [ "trials" ] ~docv:"N" ~doc:"Monte-Carlo trials.")
  in
  let lambda0 =
    Arg.(value & opt float 0.004 & info [ "lambda0" ] ~docv:"L"
           ~doc:"Fault rate at fmax (per time unit).")
  in
  Cmd.v (Cmd.info "simulate" ~doc:"Fault-inject a TRI-CRIT schedule")
    Term.(const simulate $ kind_arg $ n_arg $ seed_arg $ p_arg $ slack_arg $ trials
          $ lambda0 $ stats_arg $ jobs_arg)

let pareto_cmd =
  let reliability =
    Arg.(value & flag & info [ "reliability"; "r" ]
           ~doc:"Sweep the TRI-CRIT front instead of BI-CRIT.")
  in
  let vdd =
    Arg.(value & flag & info [ "vdd" ]
           ~doc:"Sweep the VDD-HOPPING BI-CRIT LP (Section IV) instead of the \
                 continuous model, re-optimising each deadline from the previous \
                 optimal basis.")
  in
  let cold =
    Arg.(value & flag & info [ "cold" ]
           ~doc:"With $(b,--vdd): solve every deadline independently, from the \
                 crash basis, instead of chaining optimal bases.  The front is \
                 identical either way.")
  in
  Cmd.v (Cmd.info "pareto" ~doc:"Sweep the energy/deadline trade-off")
    Term.(const pareto $ kind_arg $ n_arg $ seed_arg $ p_arg $ reliability $ vdd
          $ cold $ stats_arg $ jobs_arg)

let demo_cmd =
  Cmd.v (Cmd.info "demo" ~doc:"End-to-end pipeline demo") Term.(const demo $ seed_arg)

let () =
  let info =
    Cmd.info "esched" ~version:"1.0.0"
      ~doc:"Energy-aware scheduling under makespan and reliability constraints."
  in
  exit (Cmd.eval' (Cmd.group info [ generate_cmd; solve_cmd; simulate_cmd; pareto_cmd; demo_cmd ]))
