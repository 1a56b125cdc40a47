(* Tests for mappings, schedules, list scheduling, validation and the
   Gantt rendering. *)

let check_float tol = Alcotest.(check (float tol))

let diamond () =
  Dag.make ?labels:None ~weights:[| 1.; 2.; 3.; 4. |]
    ~edges:[ (0, 1); (0, 2); (1, 3); (2, 3) ]

let test_mapping_partition_checked () =
  let d = diamond () in
  Alcotest.check_raises "task mapped twice"
    (Invalid_argument "Mapping.make: task mapped twice") (fun () ->
      ignore (Mapping.make ~p:2 d ~order:[| [ 0; 1; 3 ]; [ 1; 2 ] |]));
  Alcotest.check_raises "task unmapped" (Invalid_argument "Mapping.make: task 3 unmapped")
    (fun () -> ignore (Mapping.make ~p:2 d ~order:[| [ 0; 1 ]; [ 2 ] |]))

let test_mapping_order_respects_precedence () =
  let d = diamond () in
  (* 3 before 1 on the same processor conflicts with 1 -> 3 *)
  Alcotest.check_raises "cycle via processor order"
    (Invalid_argument "Dag: cycle detected") (fun () ->
      ignore (Mapping.make ~p:1 d ~order:[| [ 0; 3; 1; 2 ] |]))

let test_constraint_dag () =
  let d = diamond () in
  let m = Mapping.make ~p:2 d ~order:[| [ 0; 1 ]; [ 2; 3 ] |] in
  let cd = Mapping.constraint_dag m in
  (* original 4 edges + (0,1) dup collapses + (2,3) dup collapses: the
     processor-order edges coincide with application edges here *)
  Alcotest.(check int) "edges" 4 (Dag.n_edges cd);
  let m2 = Mapping.make ~p:2 d ~order:[| [ 0; 2 ]; [ 1; 3 ] |] in
  Alcotest.(check bool) "proc edge added" true
    (Dag.is_edge (Mapping.constraint_dag m2) 0 2)

let test_mapping_accessors () =
  let d = diamond () in
  let m = Mapping.make ~p:2 d ~order:[| [ 0; 1 ]; [ 2; 3 ] |] in
  Alcotest.(check int) "proc of 2" 1 (Mapping.proc_of m 2);
  Alcotest.(check int) "rank of 3" 1 (Mapping.rank_of m 3);
  check_float 1e-12 "load p0" 3. (Mapping.load m 0);
  check_float 1e-12 "load p1" 7. (Mapping.load m 1)

let test_single_processor_mapping () =
  let d = diamond () in
  let m = Mapping.single_processor d in
  Alcotest.(check int) "p" 1 (Mapping.p m);
  Alcotest.(check int) "all tasks" 4 (List.length (Mapping.order m 0))

let test_schedule_energy_makespan () =
  let d = diamond () in
  let m = Mapping.single_processor d in
  let s = Schedule.uniform m ~speed:2. in
  (* serial chain: makespan = Σ w / 2 = 5; energy = Σ w·4 = 40 *)
  check_float 1e-9 "makespan" 5. (Schedule.makespan s);
  check_float 1e-9 "energy" 40. (Schedule.energy s)

let test_schedule_parallel_makespan () =
  let d = diamond () in
  let m = Mapping.make ~p:2 d ~order:[| [ 0; 1 ]; [ 2; 3 ] |] in
  let s = Schedule.uniform m ~speed:1. in
  (* critical path 0->2->3 = 8 *)
  check_float 1e-9 "makespan" 8. (Schedule.makespan s)

let test_schedule_work_validation () =
  let d = diamond () in
  let m = Mapping.single_processor d in
  let bogus = Array.make 4 [ [ { Schedule.speed = 1.; time = 99. } ] ] in
  Alcotest.(check bool) "work mismatch rejected" true
    (match Schedule.make m ~executions:bogus with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_schedule_reexecution_accounting () =
  let d = diamond () in
  let m = Mapping.single_processor d in
  let part i f = { Schedule.speed = f; time = Dag.weight d i /. f } in
  let executions =
    [| [ [ part 0 1. ] ]; [ [ part 1 0.5 ]; [ part 1 0.5 ] ]; [ [ part 2 1. ] ]; [ [ part 3 1. ] ] |]
  in
  let s = Schedule.make m ~executions in
  Alcotest.(check bool) "task 1 re-executed" true (Schedule.reexecuted s 1);
  (* worst case: both attempts count: duration 2·(2/0.5) = 8 *)
  check_float 1e-9 "duration worst case" 8. (Schedule.duration s 1);
  (* energy both attempts: 2·w·f² = 2·2·0.25 = 1 *)
  check_float 1e-9 "energy both attempts" 1. (Schedule.task_energy s 1)

let test_schedule_vdd_parts () =
  let d = Dag.make ?labels:None ~weights:[| 2. |] ~edges:[] in
  let m = Mapping.single_processor d in
  let e = [ { Schedule.speed = 0.5; time = 2. }; { Schedule.speed = 1.; time = 1. } ] in
  let s = Schedule.make m ~executions:[| [ e ] |] in
  check_float 1e-9 "exec time" 3. (Schedule.exec_time e);
  check_float 1e-9 "work" 2. (Schedule.exec_work e);
  (* energy 0.5³·2 + 1³·1 = 1.25 *)
  check_float 1e-9 "energy" 1.25 (Schedule.energy s)

let test_with_execs () =
  let d = diamond () in
  let m = Mapping.single_processor d in
  let s = Schedule.uniform m ~speed:1. in
  let part = { Schedule.speed = 0.5; time = Dag.weight d 0 /. 0.5 } in
  let s2 = Schedule.with_execs s 0 [ [ part ]; [ part ] ] in
  Alcotest.(check bool) "updated" true (Schedule.reexecuted s2 0);
  Alcotest.(check bool) "original untouched" false (Schedule.reexecuted s 0)

(* of_speeds ~reexecuted builds what the TRI-CRIT solvers used to
   write by hand: every task at its speed, twice where re-executed. *)
let test_of_speeds_reexecuted () =
  let d = diamond () in
  let m = Mapping.make ~p:2 d ~order:[| [ 0; 1; 3 ]; [ 2 ] |] in
  let speeds = [| 0.5; 0.7; 0.9; 0.3 |] and reexecuted = [| true; false; true; false |] in
  let part i = { Schedule.speed = speeds.(i); time = Dag.weight d i /. speeds.(i) } in
  let executions =
    Array.init 4 (fun i -> if reexecuted.(i) then [ [ part i ]; [ part i ] ] else [ [ part i ] ])
  in
  let by_hand = Schedule.make m ~executions in
  let built = Schedule.of_speeds ~reexecuted m ~speeds in
  for i = 0 to 3 do
    Alcotest.(check bool)
      (Printf.sprintf "task %d executions" i)
      true
      (Schedule.executions built i = Schedule.executions by_hand i)
  done;
  Alcotest.(check bool) "energy" true (Schedule.energy built = Schedule.energy by_hand);
  Alcotest.(check bool) "makespan" true (Schedule.makespan built = Schedule.makespan by_hand);
  Alcotest.(check bool) "absent = all once" true
    (Schedule.executions (Schedule.of_speeds m ~speeds) 0 = [ [ part 0 ] ]);
  Alcotest.check_raises "length checked"
    (Invalid_argument "Schedule.of_speeds: reexecuted length mismatch") (fun () ->
      ignore (Schedule.of_speeds ~reexecuted:[| true |] m ~speeds))

(* list scheduling *)

let test_bottom_levels () =
  let d = diamond () in
  let bl = List_sched.bottom_levels d in
  check_float 1e-12 "bl sink" 4. bl.(3);
  check_float 1e-12 "bl source" 8. bl.(0);
  check_float 1e-12 "bl mid" 7. bl.(2)

let test_top_levels () =
  let d = diamond () in
  let tl = List_sched.top_levels d in
  check_float 1e-12 "tl source" 0. tl.(0);
  check_float 1e-12 "tl sink" 4. tl.(3)

let test_list_sched_valid_mapping () =
  let rng = Es_util.Rng.create ~seed:42 in
  let d = Generators.random_layered rng ~layers:4 ~width:4 ~density:0.4 ~wlo:1. ~whi:3. in
  List.iter
    (fun prio ->
      let m = List_sched.schedule d ~p:3 ~priority:prio in
      (* Mapping.make already validates; also check the makespan is
         consistent at speed 1 *)
      let ms = List_sched.makespan_at_speed m ~f:1. in
      Alcotest.(check bool)
        (List_sched.priority_name prio ^ " bounds")
        true
        (ms >= Dag.critical_path_length d ~durations:(Dag.weights d) -. 1e-9
        && ms <= Dag.total_weight d +. 1e-9))
    List_sched.all_priorities

let test_list_sched_single_proc_is_serial () =
  let d = diamond () in
  let m = List_sched.schedule d ~p:1 ~priority:List_sched.Bottom_level in
  check_float 1e-9 "serial makespan" (Dag.total_weight d)
    (List_sched.makespan_at_speed m ~f:1.)

let test_list_sched_parallel_speedup () =
  let rng = Es_util.Rng.create ~seed:43 in
  let d = Generators.fork rng ~n:8 ~wlo:1. ~whi:1.5 in
  let m1 = List_sched.schedule d ~p:1 ~priority:List_sched.Bottom_level in
  let m8 = List_sched.schedule d ~p:8 ~priority:List_sched.Bottom_level in
  Alcotest.(check bool) "8 procs faster" true
    (List_sched.makespan_at_speed m8 ~f:1. < List_sched.makespan_at_speed m1 ~f:1. -. 1e-9)

(* validation *)

let rel = Rel.make ~lambda0:1e-4 ~sensitivity:3. ~fmin:0.2 ~fmax:1.0 ~frel:0.8 ()

let test_validate_clean_schedule () =
  let d = diamond () in
  let m = Mapping.single_processor d in
  let s = Schedule.uniform m ~speed:1. in
  Alcotest.(check bool) "feasible" true
    (Validate.is_feasible ~deadline:10.5 ~rel ~model:(Speed.continuous ~fmin:0.2 ~fmax:1.0) s)

let test_validate_deadline_violation () =
  let d = diamond () in
  let m = Mapping.single_processor d in
  let s = Schedule.uniform m ~speed:1. in
  match Validate.check ~deadline:5. ~model:(Speed.continuous ~fmin:0.2 ~fmax:1.0) s with
  | [ Validate.Deadline_exceeded _ ] -> ()
  | other ->
    Alcotest.failf "expected deadline violation, got %d violations" (List.length other)

let test_validate_inadmissible_speed () =
  let d = diamond () in
  let m = Mapping.single_processor d in
  let s = Schedule.uniform m ~speed:0.5 in
  match Validate.check ~model:(Speed.discrete [| 0.4; 1.0 |]) s with
  | violations ->
    Alcotest.(check int) "all four tasks flagged" 4 (List.length violations)

let test_validate_speed_change_forbidden () =
  let d = Dag.make ?labels:None ~weights:[| 2. |] ~edges:[] in
  let m = Mapping.single_processor d in
  let e = [ { Schedule.speed = 0.4; time = 2.5 }; { Schedule.speed = 1.; time = 1. } ] in
  let s = Schedule.make m ~executions:[| [ e ] |] in
  let has_change =
    List.exists
      (function Validate.Speed_change_forbidden _ -> true | _ -> false)
      (Validate.check ~model:(Speed.discrete [| 0.4; 1.0 |]) s)
  in
  Alcotest.(check bool) "speed change flagged" true has_change;
  (* the same schedule is fine under VDD-HOPPING *)
  Alcotest.(check bool) "vdd ok" true
    (Validate.is_feasible ~model:(Speed.vdd_hopping [| 0.4; 1.0 |]) s)

let test_validate_reliability () =
  let d = Dag.make ?labels:None ~weights:[| 2. |] ~edges:[] in
  let m = Mapping.single_processor d in
  (* single execution below frel: violates *)
  let slow = Schedule.uniform m ~speed:0.5 in
  let has_rel =
    List.exists
      (function Validate.Reliability_violated _ -> true | _ -> false)
      (Validate.check ~rel ~model:(Speed.continuous ~fmin:0.2 ~fmax:1.0) slow)
  in
  Alcotest.(check bool) "slow single violates" true has_rel;
  (* re-executed at the floor: passes *)
  match Rel.min_reexec_speed rel ~w:2. with
  | None -> Alcotest.fail "floor must exist"
  | Some flo ->
    let part = { Schedule.speed = flo; time = 2. /. flo } in
    let s = Schedule.make m ~executions:[| [ [ part ]; [ part ] ] |] in
    Alcotest.(check bool) "re-exec at floor ok" true
      (Validate.is_feasible ~rel ~model:(Speed.continuous ~fmin:0.2 ~fmax:1.0) s)

let test_explain_strings () =
  let d = diamond () in
  let v = Validate.Deadline_exceeded { makespan = 2.; deadline = 1. } in
  Alcotest.(check bool) "explain non-empty" true (String.length (Validate.explain d v) > 0)

let test_gantt_renders () =
  let d = diamond () in
  let m = Mapping.make ~p:2 d ~order:[| [ 0; 1 ]; [ 2; 3 ] |] in
  let s = Schedule.uniform m ~speed:1. in
  let g = Gantt.render ?width:None ~deadline:9. s in
  Alcotest.(check bool) "two rows" true
    (List.length (String.split_on_char '\n' g) >= 3)

let suite =
  ( "sched",
    [
      Alcotest.test_case "mapping partition checked" `Quick test_mapping_partition_checked;
      Alcotest.test_case "mapping respects precedence" `Quick
        test_mapping_order_respects_precedence;
      Alcotest.test_case "constraint dag" `Quick test_constraint_dag;
      Alcotest.test_case "mapping accessors" `Quick test_mapping_accessors;
      Alcotest.test_case "single processor mapping" `Quick test_single_processor_mapping;
      Alcotest.test_case "schedule energy/makespan" `Quick test_schedule_energy_makespan;
      Alcotest.test_case "schedule parallel makespan" `Quick test_schedule_parallel_makespan;
      Alcotest.test_case "schedule work validation" `Quick test_schedule_work_validation;
      Alcotest.test_case "re-execution accounting" `Quick test_schedule_reexecution_accounting;
      Alcotest.test_case "vdd parts accounting" `Quick test_schedule_vdd_parts;
      Alcotest.test_case "with_execs functional update" `Quick test_with_execs;
      Alcotest.test_case "of_speeds ~reexecuted = hand-built" `Quick test_of_speeds_reexecuted;
      Alcotest.test_case "bottom levels" `Quick test_bottom_levels;
      Alcotest.test_case "top levels" `Quick test_top_levels;
      Alcotest.test_case "list sched valid mappings" `Quick test_list_sched_valid_mapping;
      Alcotest.test_case "list sched serial" `Quick test_list_sched_single_proc_is_serial;
      Alcotest.test_case "list sched speedup" `Quick test_list_sched_parallel_speedup;
      Alcotest.test_case "validate clean schedule" `Quick test_validate_clean_schedule;
      Alcotest.test_case "validate deadline" `Quick test_validate_deadline_violation;
      Alcotest.test_case "validate inadmissible speed" `Quick test_validate_inadmissible_speed;
      Alcotest.test_case "validate speed change" `Quick test_validate_speed_change_forbidden;
      Alcotest.test_case "validate reliability" `Quick test_validate_reliability;
      Alcotest.test_case "explain strings" `Quick test_explain_strings;
      Alcotest.test_case "gantt renders" `Quick test_gantt_renders;
    ] )

let test_of_assignment () =
  let d = diamond () in
  let m = Mapping.of_assignment ~p:2 d ~proc:[| 0; 1; 0; 1 |] in
  Alcotest.(check (list int)) "proc 0 topo-ordered" [ 0; 2 ] (Mapping.order m 0);
  Alcotest.(check (list int)) "proc 1 topo-ordered" [ 1; 3 ] (Mapping.order m 1);
  Alcotest.check_raises "range checked"
    (Invalid_argument "Mapping.of_assignment: processor out of range") (fun () ->
      ignore (Mapping.of_assignment ~p:2 d ~proc:[| 0; 1; 2; 0 |]))

(* The level folds [List_sched] kept before it called
   [Dag.earliest_start] and [Dag.latest_start] at the weights. *)
let reference_top_levels dag =
  let tl = Array.make (Dag.n dag) 0. in
  Array.iter
    (fun i ->
      tl.(i) <-
        List.fold_left
          (fun acc p -> Float.max acc (tl.(p) +. Dag.weight dag p))
          0. (Dag.preds dag i))
    (Dag.topological_order dag);
  tl

let reference_bottom_levels dag =
  let order = Dag.topological_order dag in
  let bl = Array.make (Dag.n dag) 0. in
  for k = Dag.n dag - 1 downto 0 do
    let i = order.(k) in
    let below = List.fold_left (fun acc s -> Float.max acc bl.(s)) 0. (Dag.succs dag i) in
    bl.(i) <- Dag.weight dag i +. below
  done;
  bl

let qcheck_top_levels_reference =
  QCheck.Test.make ~name:"top levels = the reference fold, bottom levels too" ~count:300
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let r = Es_util.Rng.create ~seed in
      let n = 1 + Es_util.Rng.int r 40 in
      let dag =
        match seed mod 3 with
        | 0 -> Generators.random_dag r ~n ~p:(Es_util.Rng.float r 0.5) ~wlo:1e-3 ~whi:1e3
        | 1 ->
          Generators.random_layered r ~layers:(1 + Es_util.Rng.int r 6)
            ~width:(1 + Es_util.Rng.int r 6) ~density:(Es_util.Rng.float r 1.) ~wlo:1e-3
            ~whi:1e3
        | _ -> Generators.out_tree r ~n ~max_children:(1 + Es_util.Rng.int r 4) ~wlo:1e-3 ~whi:1e3
      in
      let bits a = Array.map Int64.bits_of_float a in
      bits (List_sched.top_levels dag) = bits (reference_top_levels dag)
      && bits (List_sched.bottom_levels dag) = bits (reference_bottom_levels dag))

let suite =
  ( fst suite,
    snd suite
    @ [
        Alcotest.test_case "of_assignment" `Quick test_of_assignment;
        QCheck_alcotest.to_alcotest qcheck_top_levels_reference;
      ] )
