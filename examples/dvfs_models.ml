(* Comparing the four speed models of the paper on one application.

   The same mapped DAG is solved under CONTINUOUS (the theoretical
   ideal), VDD-HOPPING (mix two voltages inside a task — polynomial,
   Section IV), DISCRETE (one mode per task — NP-complete, solved
   exactly here by branch-and-bound) and INCREMENTAL (evenly spaced
   knob — approximated by round-up).  The energies illustrate the
   paper's ordering: continuous <= vdd-hopping <= discrete, with
   the incremental grid converging to continuous as δ shrinks.

   Run with:  dune exec examples/dvfs_models.exe *)

let fmin = 0.2
let fmax = 1.0
let levels = [| 0.2; 0.4; 0.6; 0.8; 1.0 |]

let () =
  let rng = Es_util.Rng.create ~seed:7 in
  let dag =
    Generators.random_layered rng ~layers:4 ~width:3 ~density:0.5 ~wlo:1. ~whi:3.
  in
  let mapping = List_sched.schedule dag ~p:3 ~priority:List_sched.Bottom_level in
  let dmin = List_sched.makespan_at_speed mapping ~f:fmax in
  let deadline = 1.6 *. dmin in
  Printf.printf "Application: %d tasks on 3 processors, D = 1.6 x Dmin = %.3f\n\n"
    (Dag.n dag) deadline;

  let table = Es_util.Table.create ~columns:[ "model"; "energy"; "vs continuous" ] in
  let continuous_energy = ref nan in
  let report name = function
    | None -> Es_util.Table.add_row table [ name; "infeasible"; "-" ]
    | Some sched ->
      let e = Schedule.energy sched in
      if Float.is_nan !continuous_energy then continuous_energy := e;
      Es_util.Table.add_row table
        [ name; Printf.sprintf "%.5f" e; Printf.sprintf "%.3fx" (e /. !continuous_energy) ]
  in
  report "continuous" (Bicrit_continuous.solve ~deadline ~fmin ~fmax mapping);
  report "vdd-hopping (LP)" (Bicrit_vdd.solve ~deadline ~levels mapping);
  report "discrete (exact B&B)"
    (Option.map
       (fun r -> r.Bicrit_discrete.schedule)
       (Bicrit_discrete.solve_exact ~deadline ~levels mapping));
  List.iter
    (fun delta ->
      report
        (Printf.sprintf "incremental d=%.2f" delta)
        (Bicrit_incremental.approximate ~deadline ~fmin ~fmax ~delta mapping))
    [ 0.2; 0.1; 0.05; 0.01 ];
  Es_util.Table.print
    ~caption:"Energy under the four speed models (same mapping, same deadline)" table
