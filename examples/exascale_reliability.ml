(* The paper's motivating scenario (Section I): on massively parallel
   platforms, blindly slowing processors down to save energy degrades
   reliability, because transient-fault rates grow as voltage drops.
   Re-execution buys the reliability back while still allowing slow,
   cheap executions.

   This example compares three policies on a wide workload with a
   measurable fault rate, and fault-injects each schedule:

     1. "fast":     everything once at fmax   — reliable but expensive;
     2. "naive":    BI-CRIT optimal slowdown  — cheap but *fails* the
                    reliability threshold (what Section I warns about);
     3. "tri-crit": best-of-two heuristics    — cheap *and* reliable,
                    by re-executing the tasks that can afford it.

   Run with:  dune exec examples/exascale_reliability.exe *)

let fmin = 0.2
let fmax = 1.0
let frel = 0.8

let () =
  let rng = Es_util.Rng.create ~seed:11 in
  (* a bag of parallel pipelines: fork-join of 12 branches *)
  let dag = Generators.fork_join rng ~n:12 ~wlo:1. ~whi:4. in
  let mapping = List_sched.schedule dag ~p:12 ~priority:List_sched.Bottom_level in
  let dmin = List_sched.makespan_at_speed mapping ~f:fmax in
  let deadline = 2.2 *. dmin in
  (* fault rate large enough to observe failures in 20k runs *)
  let rel = Rel.make ~lambda0:0.002 ~sensitivity:3. ~fmin ~fmax ~frel () in
  Printf.printf
    "Workload: fork-join, %d tasks on 12 processors; D = %.3f (2.2 x Dmin)\n\
     Reliability threshold: R_i(f_rel = %.1f); fault rate at fmax = %g\n\n"
    (Dag.n dag) deadline frel rel.Rel.lambda0;

  let schedules = ref [] in
  (* 1. everything at fmax *)
  schedules := ("fast (all fmax)", Schedule.uniform mapping ~speed:fmax) :: !schedules;
  (* 2. naive BI-CRIT slowdown, ignoring reliability *)
  (match Bicrit_continuous.solve ~deadline ~fmin ~fmax mapping with
  | Some s -> schedules := ("naive DVFS (bi-crit)", s) :: !schedules
  | None -> ());
  (* 3. TRI-CRIT with re-execution *)
  (match Heuristics.best_of ~rel ~deadline mapping with
  | Some (sol, who) ->
    let name =
      Printf.sprintf "tri-crit (%s)"
        (Heuristics.winner_name who)
    in
    schedules := (name, sol.Heuristics.schedule) :: !schedules
  | None -> ());

  let table =
    Es_util.Table.create
      ~columns:
        [ "policy"; "energy"; "meets R threshold"; "sim success"; "mean realised E" ]
  in
  List.iter
    (fun (name, sched) ->
      let meets =
        Validate.check ~rel ~model:(Speed.continuous ~fmin ~fmax) sched
        |> List.for_all (function Validate.Reliability_violated _ -> false | _ -> true)
      in
      let report =
        Sim.monte_carlo_par (Es_util.Rng.create ~seed:99) ~rel ~trials:20_000 sched
      in
      Es_util.Table.add_row table
        [
          name;
          Printf.sprintf "%.4f" (Schedule.energy sched);
          (if meets then "yes" else "NO");
          Printf.sprintf "%.4f" report.Sim.success_rate;
          Printf.sprintf "%.4f" report.Sim.mean_realised_energy;
        ])
    (List.rev !schedules);
  Es_util.Table.print
    ~caption:
      "Naive DVFS saves energy but violates the reliability constraint;\n\
       re-execution recovers reliability at a fraction of the fast policy's energy"
    table
