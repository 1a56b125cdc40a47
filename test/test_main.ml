(* Test entry point: every suite of the reproduction in one runner. *)
let () =
  Alcotest.run "energy_sched"
    [
      Test_util.suite;
      Test_obs.suite;
      Test_par.suite;
      Test_linalg.suite;
      Test_lp.suite;
      Test_numopt.suite;
      Test_dag.suite;
      Test_sp.suite;
      Test_platform.suite;
      Test_rel.suite;
      Test_sched.suite;
      Test_validate.suite;
      Test_sim.suite;
      Test_bicrit.suite;
      Test_vdd.suite;
      Test_discrete.suite;
      Test_tricrit.suite;
      Test_tricrit_vdd.suite;
      Test_search.suite;
      Test_heuristics.suite;
      Test_complexity.suite;
      Test_replication.suite;
      Test_pareto.suite;
      Test_extensions.suite;
      Test_extensions2.suite;
      Test_facade.suite;
      Test_check.suite;
      Test_serve.suite;
    ]
