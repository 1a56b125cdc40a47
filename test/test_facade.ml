(* Tests for the Solver facade and assorted edge cases the focused
   suites do not reach (CSV rendering, pretty-printers, DOT export,
   degenerate instances). *)

let fmin = 0.2
let fmax = 1.0
let levels = [| 0.2; 0.4; 0.6; 0.8; 1.0 |]
let rel = Rel.make ~lambda0:1e-5 ~sensitivity:3. ~fmin ~fmax ~frel:0.8 ()

let mapping ~seed =
  let rng = Es_util.Rng.create ~seed in
  let dag = Generators.random_layered rng ~layers:3 ~width:3 ~density:0.5 ~wlo:1. ~whi:3. in
  List_sched.schedule dag ~p:2 ~priority:List_sched.Bottom_level

let deadline_of m slack = slack *. List_sched.makespan_at_speed m ~f:fmax

let test_solver_all_models_bicrit () =
  let m = mapping ~seed:701 in
  let deadline = deadline_of m 1.6 in
  List.iter
    (fun (model, want_exact) ->
      match Solver.solve { Solver.mapping = m; model; deadline; rel = None } with
      | Error msg -> Alcotest.failf "unexpected error: %s" msg
      | Ok a ->
        Alcotest.(check bool) "exactness as designed" want_exact a.Solver.exact;
        Alcotest.(check bool) "validates" true
          (Validate.is_feasible ~deadline ~model a.Solver.schedule))
    [
      (Speed.continuous ~fmin ~fmax, true);
      (Speed.vdd_hopping levels, true);
      (Speed.discrete levels, true (* small instance: B&B *));
      (Speed.incremental ~fmin ~fmax ~delta:0.1, false);
    ]

let test_solver_tricrit_continuous () =
  let m = mapping ~seed:702 in
  let deadline = deadline_of m 2. in
  match
    Solver.solve
      { Solver.mapping = m; model = Speed.continuous ~fmin ~fmax; deadline; rel = Some rel }
  with
  | Error msg -> Alcotest.failf "unexpected error: %s" msg
  | Ok a ->
    Alcotest.(check bool) "heuristic" false a.Solver.exact;
    Alcotest.(check bool) "validates with reliability" true
      (Validate.is_feasible ~deadline ~rel ~model:(Speed.continuous ~fmin ~fmax)
         a.Solver.schedule)

let test_solver_rejects_discrete_tricrit () =
  let m = mapping ~seed:703 in
  match
    Solver.solve
      { Solver.mapping = m; model = Speed.discrete levels; deadline = 100.; rel = Some rel }
  with
  | Error msg -> Alcotest.(check bool) "says unsupported" true
                   (Astring.String.is_prefix ~affix:"unsupported" msg)
  | Ok _ -> Alcotest.fail "must be rejected"

let test_solver_rejects_inconsistent_rel () =
  let m = mapping ~seed:704 in
  let bad_rel = Rel.make ~fmin:0.1 ~fmax:2.0 () in
  match
    Solver.solve
      { Solver.mapping = m; model = Speed.continuous ~fmin ~fmax; deadline = 100.;
        rel = Some bad_rel }
  with
  | Error msg -> Alcotest.(check bool) "says inconsistent" true
                   (Astring.String.is_prefix ~affix:"inconsistent" msg)
  | Ok _ -> Alcotest.fail "must be rejected"

let test_solver_infeasible_message () =
  let m = mapping ~seed:705 in
  match
    Solver.solve
      { Solver.mapping = m; model = Speed.continuous ~fmin ~fmax;
        deadline = 0.1; rel = None }
  with
  | Error msg -> Alcotest.(check bool) "says infeasible" true
                   (Astring.String.is_prefix ~affix:"infeasible" msg)
  | Ok _ -> Alcotest.fail "must be infeasible"

let test_solver_discrete_large_uses_roundup () =
  let rng = Es_util.Rng.create ~seed:706 in
  let dag = Generators.random_layered rng ~layers:6 ~width:6 ~density:0.4 ~wlo:1. ~whi:3. in
  let m = List_sched.schedule dag ~p:4 ~priority:List_sched.Bottom_level in
  let deadline = deadline_of m 1.8 in
  (* above the solver's exact threshold of 14 tasks *)
  Alcotest.(check bool) "more than 14 tasks" true (Dag.n dag > 14);
  match
    Solver.solve
      { Solver.mapping = m; model = Speed.discrete levels; deadline; rel = None }
  with
  | Error msg -> Alcotest.failf "unexpected error: %s" msg
  | Ok a ->
    Alcotest.(check bool) "approximation" false a.Solver.exact;
    Alcotest.(check bool) "engine mentions round-up" true
      (Astring.String.is_infix ~affix:"round-up" a.Solver.engine)

(* --- misc edge cases ------------------------------------------------- *)

let test_csv_rendering () =
  let t = Es_util.Table.create ~columns:[ "a"; "b" ] in
  Es_util.Table.add_row t [ "1"; "with,comma" ];
  Es_util.Table.add_row t [ "2"; "with\"quote" ];
  let csv = Es_util.Table.render_csv t in
  Alcotest.(check bool) "quoted comma" true
    (Astring.String.is_infix ~affix:"\"with,comma\"" csv);
  Alcotest.(check bool) "doubled quote" true
    (Astring.String.is_infix ~affix:"\"with\"\"quote\"" csv);
  Alcotest.(check int) "three lines" 3
    (List.length (List.filter (fun s -> s <> "") (String.split_on_char '\n' csv)))

let test_dot_export () =
  let dag = Sp.to_dag (Sp.fork ~root:1. [| 2.; 3. |]) in
  let dot = Dot.of_dag ?name:(Some "g") dag in
  Alcotest.(check bool) "digraph header" true (Astring.String.is_prefix ~affix:"digraph g" dot);
  Alcotest.(check bool) "has edges" true (Astring.String.is_infix ~affix:"t0 -> t1" dot)

let test_speed_pp () =
  List.iter
    (fun m ->
      let s = Format.asprintf "%a" Speed.pp m in
      Alcotest.(check bool) "non-empty pp" true (String.length s > 0))
    [
      Speed.continuous ~fmin ~fmax;
      Speed.discrete levels;
      Speed.vdd_hopping levels;
      Speed.incremental ~fmin ~fmax ~delta:0.1;
    ]

let test_single_task_instance () =
  (* the smallest possible instance passes through every engine *)
  let dag = Dag.make ?labels:None ~weights:[| 2. |] ~edges:[] in
  let m = Mapping.single_processor dag in
  List.iter
    (fun model ->
      match
        Solver.solve
          { Solver.mapping = m; model; deadline = 4.; rel = None }
      with
      | Error msg -> Alcotest.failf "single task failed: %s" msg
      | Ok a ->
        Alcotest.(check bool) "validates" true
          (Validate.is_feasible ~deadline:4. ~model a.Solver.schedule))
    [
      Speed.continuous ~fmin ~fmax;
      Speed.vdd_hopping levels;
      Speed.discrete levels;
      Speed.incremental ~fmin ~fmax ~delta:0.1;
    ]

let test_rel_default_params () =
  let d = Rel.default in
  Alcotest.(check bool) "lambda0 positive" true (d.Rel.lambda0 > 0.);
  Alcotest.(check bool) "frel = fmax by default" true (d.Rel.frel = d.Rel.fmax)

let test_stats_summary_string () =
  let s = Es_util.Stats.summary [| 1.; 2.; 3. |] in
  Alcotest.(check bool) "mentions mean" true (Astring.String.is_infix ~affix:"2" s)

let suite =
  ( "facade-and-edges",
    [
      Alcotest.test_case "solver all models (bi-crit)" `Quick test_solver_all_models_bicrit;
      Alcotest.test_case "solver tri-crit continuous" `Quick test_solver_tricrit_continuous;
      Alcotest.test_case "solver rejects discrete tri-crit" `Quick
        test_solver_rejects_discrete_tricrit;
      Alcotest.test_case "solver rejects inconsistent rel" `Quick
        test_solver_rejects_inconsistent_rel;
      Alcotest.test_case "solver infeasible message" `Quick test_solver_infeasible_message;
      Alcotest.test_case "solver large discrete round-up" `Quick
        test_solver_discrete_large_uses_roundup;
      Alcotest.test_case "csv rendering" `Quick test_csv_rendering;
      Alcotest.test_case "dot export" `Quick test_dot_export;
      Alcotest.test_case "speed pp" `Quick test_speed_pp;
      Alcotest.test_case "single-task instance" `Quick test_single_task_instance;
      Alcotest.test_case "rel default params" `Quick test_rel_default_params;
      Alcotest.test_case "stats summary" `Quick test_stats_summary_string;
    ] )

let qcheck_solver_always_validates =
  QCheck.Test.make ~name:"solver answers always validate" ~count:25
    QCheck.(triple (int_bound 100_000) (int_bound 3) bool)
    (fun (seed, model_idx, reliability) ->
      let m = mapping ~seed:(seed + 800) in
      let model =
        match model_idx with
        | 0 -> Speed.continuous ~fmin ~fmax
        | 1 -> Speed.vdd_hopping levels
        | 2 -> Speed.discrete levels
        | _ -> Speed.incremental ~fmin ~fmax ~delta:0.1
      in
      let deadline = deadline_of m 1.8 in
      let rel = if reliability then Some rel else None in
      match Solver.solve { Solver.mapping = m; model; deadline; rel } with
      | Error _ -> true (* unsupported combinations / infeasible are fine *)
      | Ok a -> Validate.is_feasible ~deadline ?rel ~model a.Solver.schedule)

let test_lower_bound_below_exact () =
  let m = mapping ~seed:801 in
  let deadline = deadline_of m 2. in
  match Tricrit_exact.solve ~rel ~deadline m with
  | None -> Alcotest.fail "feasible"
  | Some e ->
    let lb = Lower_bounds.tricrit ~rel ~deadline m in
    Alcotest.(check bool)
      (Printf.sprintf "LB %.4f <= exact %.4f" lb e.Heuristics.energy)
      true
      (lb <= e.Heuristics.energy *. (1. +. 1e-9))

let test_incremental_reduction_alias () =
  let r = Complexity.incremental_of_two_partition [| 3; 1; 2 |] in
  Alcotest.(check (array (float 1e-12))) "grid {1,2}" [| 1.; 2. |] r.Complexity.levels

let test_gantt_deadline_marker () =
  let dag = Dag.make ?labels:None ~weights:[| 1. |] ~edges:[] in
  let m = Mapping.single_processor dag in
  let s = Schedule.uniform m ~speed:1. in
  let g = Gantt.render ~width:40 ~deadline:2. s in
  Alcotest.(check bool) "marker drawn" true (String.contains g '|')

let test_start_times_respect_precedence () =
  let dag = Sp.to_dag (Sp.chain [| 1.; 2.; 3. |]) in
  let m = Mapping.single_processor dag in
  let s = Schedule.uniform m ~speed:0.5 in
  let st = Schedule.start_times s in
  Alcotest.(check (float 1e-9)) "t0 at 0" 0. st.(0);
  Alcotest.(check (float 1e-9)) "t1 after t0" 2. st.(1);
  Alcotest.(check (float 1e-9)) "t2 after t1" 6. st.(2)

let extra_cases =
  [
    QCheck_alcotest.to_alcotest qcheck_solver_always_validates;
    Alcotest.test_case "lower bound below exact" `Slow test_lower_bound_below_exact;
    Alcotest.test_case "incremental reduction alias" `Quick test_incremental_reduction_alias;
    Alcotest.test_case "gantt deadline marker" `Quick test_gantt_deadline_marker;
    Alcotest.test_case "start times precedence" `Quick test_start_times_respect_precedence;
  ]

let suite = (fst suite, snd suite @ extra_cases)
