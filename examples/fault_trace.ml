(* Watching re-execution absorb faults, run by run.

   The paper's worst case charges both executions of every re-executed
   task; a real run only pays for the second attempt when the first one
   fails.  This example builds a TRI-CRIT schedule under an aggressive
   fault rate and replays a few runs with the trace recorder, printing
   the realised timeline of each: failed attempts appear as 'x', spare
   second attempts as '*'.

   Run with:  dune exec examples/fault_trace.exe *)

let () =
  let rng = Es_util.Rng.create ~seed:21 in
  let dag = Generators.chain rng ~n:6 ~wlo:1. ~whi:3. in
  let mapping = Mapping.single_processor dag in
  let deadline = 3.5 *. Dag.total_weight dag in
  (* a fault rate high enough that most runs see at least one failure *)
  let rel = Rel.make ~lambda0:0.005 ~sensitivity:3. ~fmin:0.2 ~fmax:1.0 ~frel:0.8 () in
  match Tricrit_chain.solve_greedy ~rel ~deadline mapping with
  | None -> print_endline "infeasible"
  | Some sol ->
    let nre =
      Array.fold_left (fun a b -> if b then a + 1 else a) 0 sol.Tricrit_chain.reexecuted
    in
    Printf.printf
      "Chain of %d tasks, %d re-executed; worst-case makespan %.3f (D = %.3f)\n\
       worst-case energy %.4f\n\n"
      (Dag.n dag) nre
      (Schedule.makespan sol.Tricrit_chain.schedule)
      deadline sol.Tricrit_chain.energy;
    let sim_rng = Es_util.Rng.create ~seed:22 in
    for run = 1 to 4 do
      let t = Sim.trace (Es_util.Rng.split sim_rng) ~rel sol.Tricrit_chain.schedule in
      Printf.printf "run %d: realised makespan %.3f, realised energy %.4f, %d attempts\n"
        run t.Sim.makespan t.Sim.energy (List.length t.Sim.events);
      print_string (Sim.render_trace sol.Tricrit_chain.schedule t);
      print_newline ()
    done;
    (* and the aggregate view *)
    let report =
      Sim.monte_carlo_par (Es_util.Rng.create ~seed:23) ~rel ~trials:20_000
        sol.Tricrit_chain.schedule
    in
    Printf.printf
      "over 20000 runs: success %.4f, mean realised energy %.4f (%.0f%% of worst case),\n\
       mean realised makespan %.3f (worst case %.3f)\n"
      report.Sim.success_rate report.Sim.mean_realised_energy
      (100. *. report.Sim.mean_realised_energy /. report.Sim.worst_case_energy)
      report.Sim.mean_realised_makespan report.Sim.worst_case_makespan
