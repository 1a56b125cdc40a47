(* Tests for TRI-CRIT on chains (R7/R8) and forks (R9): waterfilling
   optimality structure, greedy vs exact, and the fork algorithm. *)

let rel = Rel.make ~lambda0:1e-5 ~sensitivity:3. ~fmin:0.2 ~fmax:1.0 ~frel:0.8 ()
let model = Speed.continuous ~fmin:0.2 ~fmax:1.0

let chain_instance ~seed ~n =
  let rng = Es_util.Rng.create ~seed in
  let dag = Generators.chain rng ~n ~wlo:0.5 ~whi:3. in
  (dag, Mapping.single_processor dag)

(* waterfill *)

(* run-once choices: time = energy = the effective weight *)
let once_choices eff_weights floors =
  Array.map2 (fun w floor -> { Rel.time = w; energy = w; floor }) eff_weights floors

let test_waterfill_uniform_no_floors () =
  match
    Tricrit_chain.waterfill (once_choices [| 1.; 2.; 3. |] [| 0.; 0.; 0. |]) ~fmax:1.
      ~deadline:12.
  with
  | None -> Alcotest.fail "feasible"
  | Some speeds ->
    Array.iter (fun f -> Alcotest.(check (float 1e-9)) "common speed" 0.5 f) speeds

let test_waterfill_floor_clamps () =
  match
    Tricrit_chain.waterfill (once_choices [| 1.; 1. |] [| 0.9; 0. |]) ~fmax:1. ~deadline:20.
  with
  | None -> Alcotest.fail "feasible"
  | Some speeds ->
    Alcotest.(check (float 1e-9)) "clamped at floor" 0.9 speeds.(0);
    Alcotest.(check bool) "other one slow" true (speeds.(1) < 0.9)

let test_waterfill_deadline_tight () =
  match
    Tricrit_chain.waterfill (once_choices [| 2.; 2. |] [| 0.; 0. |]) ~fmax:1. ~deadline:4.
  with
  | None -> Alcotest.fail "feasible exactly at fmax"
  | Some speeds -> Array.iter (fun f -> Alcotest.(check (float 1e-6)) "at fmax" 1. f) speeds

let test_waterfill_infeasible () =
  Alcotest.(check bool) "over capacity" true
    (Tricrit_chain.waterfill (once_choices [| 2.; 2. |] [| 0.; 0. |]) ~fmax:1. ~deadline:3.9
    = None)

let test_waterfill_time_exhausted_or_floors () =
  (* ported onto the Es_check waterfilling oracle, which checks the
     full KKT structure: bounds, common water level above the floors,
     and deadline saturation unless every task is floor-clamped *)
  let eff_weights = [| 1.; 2.; 1.5 |] and floors = [| 0.4; 0.3; 0.5 |] in
  match Tricrit_chain.waterfill (once_choices eff_weights floors) ~fmax:1. ~deadline:9. with
  | None -> Alcotest.fail "feasible"
  | Some speeds ->
    let verdict =
      Es_check.Kkt.check_waterfill ~eff_weights ~floors ~fmax:1. ~deadline:9.
        ~speeds
    in
    Alcotest.(check bool) (Es_check.Kkt.describe verdict) true (Es_check.Kkt.is_ok verdict)

(* Two reference waterfills, kept apart from the library: the chain's
   "slow everything equally" rule (floors and one common level) and
   replication's κ-scaled rule.  [Tricrit_chain.waterfill] must equal
   the second on every choice vector, and the first where every task
   runs once or twice. *)

let reference_chain_waterfill ~eff_weights ~floors ~fmax ~deadline =
  let n = Array.length eff_weights in
  let time_at fc =
    let acc = ref 0. in
    for i = 0 to n - 1 do
      acc := !acc +. (eff_weights.(i) /. Float.max fc floors.(i))
    done;
    !acc
  in
  if Array.exists (fun fl -> fl > fmax *. (1. +. 1e-12)) floors then None
  else if time_at fmax > deadline *. (1. +. 1e-9) then None
  else begin
    let speeds_of fc = Array.init n (fun i -> Float.min fmax (Float.max fc floors.(i))) in
    if time_at 0. <= deadline then Some (speeds_of 0.)
    else
      Some
        (speeds_of
           (Es_numopt.Scalar.root_monotone ~tol:1e-14
              ~f:(fun fc -> time_at fc -. deadline)
              ~lo:0. ~hi:fmax))
  end

let reference_replication_waterfill (profile : (float * float * float) array) ~fmax ~deadline =
  let n = Array.length profile in
  let kappa = Array.map (fun (tc, ec, _) -> Es_util.Futil.cbrt (tc /. ec)) profile in
  let speed_at fc i =
    let _, _, floor = profile.(i) in
    Es_util.Futil.clamp ~lo:floor ~hi:fmax (kappa.(i) *. fc)
  in
  let time_at fc =
    let acc = ref 0. in
    for i = 0 to n - 1 do
      let tc, _, _ = profile.(i) in
      acc := !acc +. (tc /. speed_at fc i)
    done;
    !acc
  in
  if not (Array.for_all (fun (_, _, fl) -> fl <= fmax *. (1. +. 1e-12)) profile) then None
  else begin
    let fc_hi = fmax /. Array.fold_left (fun a k -> Float.min a k) 1. kappa in
    if time_at fc_hi > deadline *. (1. +. 1e-9) then None
    else begin
      let fc =
        if time_at 0. <= deadline then 0.
        else
          Es_numopt.Scalar.root_monotone ~tol:1e-14
            ~f:(fun fc -> time_at fc -. deadline)
            ~lo:0. ~hi:fc_hi
      in
      Some (Array.init n (speed_at fc))
    end
  end

(* 1-30 tasks mixing the three choices, floors in [0, fmax] (the ends
   included), deadlines from below the all-fmax time to 30 times it. *)
let waterfill_case_gen =
  let open QCheck2.Gen in
  let* fmax = float_range 0.5 5. in
  let* n = int_range 1 30 in
  let choice =
    let* w = float_range 0.1 10. in
    let* floor = frequency [ (1, return 0.); (1, return fmax); (6, float_range 0. fmax) ] in
    oneofl
      [
        { Rel.time = w; energy = w; floor };
        { Rel.time = 2. *. w; energy = 2. *. w; floor };
        { Rel.time = w; energy = 2. *. w; floor };
      ]
  in
  let* choices = array_size (return n) choice in
  let* factor = oneof [ float_range 0.8 1.; float_range 1. 2.; float_range 2. 30. ] in
  let at_fmax = Array.fold_left (fun acc (c : Rel.choice) -> acc +. (c.time /. fmax)) 0. choices in
  return (choices, fmax, factor *. at_fmax)

let print_waterfill_case (choices, fmax, deadline) =
  Printf.sprintf "fmax %h deadline %h\n%s" fmax deadline
    (String.concat "\n"
       (Array.to_list
          (Array.map
             (fun (c : Rel.choice) ->
               Printf.sprintf "time %h energy %h floor %h" c.time c.energy c.floor)
             choices)))

let same_speeds a b =
  match (a, b) with
  | None, None -> true
  | Some a, Some b ->
    Array.length a = Array.length b
    && Array.for_all2 (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)) a b
  | _ -> false

(* replicated is the one choice whose time and energy differ *)
let qcheck_waterfill_references =
  QCheck2.Test.make ~name:"waterfill = the chain and replication references, bit for bit" ~count:500
    ~print:print_waterfill_case waterfill_case_gen (fun (choices, fmax, deadline) ->
      let got = Tricrit_chain.waterfill choices ~fmax ~deadline in
      let profile = Array.map (fun (c : Rel.choice) -> (c.time, c.energy, c.floor)) choices in
      same_speeds got (reference_replication_waterfill profile ~fmax ~deadline)
      &&
      if Array.exists (fun (c : Rel.choice) -> c.time <> c.energy) choices then true
      else begin
        let eff_weights = Array.map (fun (c : Rel.choice) -> c.time) choices in
        let floors = Array.map (fun (c : Rel.choice) -> c.floor) choices in
        same_speeds got (reference_chain_waterfill ~eff_weights ~floors ~fmax ~deadline)
        &&
        match got with
        | None -> true
        | Some speeds ->
          Es_check.Kkt.is_ok
            (Es_check.Kkt.check_waterfill ~eff_weights ~floors ~fmax ~deadline ~speeds)
      end)

(* chain solvers *)

let count_reexec sol =
  Array.fold_left (fun a b -> if b then a + 1 else a) 0 sol.Tricrit_chain.reexecuted

let test_chain_no_reexec_at_tight_deadline () =
  let _, m = chain_instance ~seed:81 ~n:8 in
  let dmin = Dag.total_weight (Mapping.dag m) in
  match Tricrit_chain.solve_exact ~rel ~deadline:dmin m with
  | None -> Alcotest.fail "feasible"
  | Some sol -> Alcotest.(check int) "no slack, no re-execution" 0 (count_reexec sol)

let test_chain_reexec_appears_with_slack () =
  let _, m = chain_instance ~seed:82 ~n:8 in
  let dmin = Dag.total_weight (Mapping.dag m) in
  match Tricrit_chain.solve_exact ~rel ~deadline:(4. *. dmin) m with
  | None -> Alcotest.fail "feasible"
  | Some sol -> Alcotest.(check bool) "re-executions used" true (count_reexec sol > 0)

let test_chain_exact_beats_baseline () =
  let _, m = chain_instance ~seed:83 ~n:8 in
  let dmin = Dag.total_weight (Mapping.dag m) in
  let deadline = 3. *. dmin in
  match
    ( Tricrit_chain.solve_exact ~rel ~deadline m,
      Tricrit_chain.no_reexecution ~rel ~deadline m )
  with
  | Some e, Some b ->
    Alcotest.(check bool) "exact <= baseline" true
      (e.Tricrit_chain.energy <= b.Tricrit_chain.energy +. 1e-9)
  | _ -> Alcotest.fail "both feasible"

let test_chain_greedy_close_to_exact () =
  List.iter
    (fun seed ->
      let _, m = chain_instance ~seed ~n:9 in
      let dmin = Dag.total_weight (Mapping.dag m) in
      List.iter
        (fun slack ->
          let deadline = slack *. dmin in
          match
            ( Tricrit_chain.solve_exact ~rel ~deadline m,
              Tricrit_chain.solve_greedy ~rel ~deadline m )
          with
          | Some e, Some g ->
            Alcotest.(check bool)
              (Printf.sprintf "greedy within 2%% (slack %.1f)" slack)
              true
              (g.Tricrit_chain.energy <= e.Tricrit_chain.energy *. 1.02)
          | None, None -> ()
          | _ -> Alcotest.fail "feasibility disagreement")
        [ 1.2; 2.; 3.5 ])
    [ 84; 85 ]

let test_chain_schedules_validate () =
  let _, m = chain_instance ~seed:86 ~n:8 in
  let dmin = Dag.total_weight (Mapping.dag m) in
  List.iter
    (fun slack ->
      let deadline = slack *. dmin in
      List.iter
        (fun sol ->
          match sol with
          | None -> ()
          | Some (s : Tricrit_chain.solution) ->
            Alcotest.(check bool) "validator accepts" true
              (Validate.is_feasible ~deadline ~rel ~model s.schedule))
        [
          Tricrit_chain.solve_greedy ~rel ~deadline m;
          Tricrit_chain.no_reexecution ~rel ~deadline m;
        ])
    [ 1.0; 1.5; 2.5; 4. ]

let test_chain_infeasible_deadline () =
  let _, m = chain_instance ~seed:87 ~n:5 in
  let dmin = Dag.total_weight (Mapping.dag m) in
  Alcotest.(check bool) "below fmax capacity" true
    (Tricrit_chain.solve_greedy ~rel ~deadline:(0.9 *. dmin) m = None)

let test_chain_energy_monotone_in_deadline () =
  let _, m = chain_instance ~seed:88 ~n:8 in
  let dmin = Dag.total_weight (Mapping.dag m) in
  let energies =
    List.filter_map
      (fun slack ->
        Option.map (fun (s : Tricrit_chain.solution) -> s.energy)
          (Tricrit_chain.solve_greedy ~rel ~deadline:(slack *. dmin) m))
      [ 1.0; 1.4; 2.0; 3.0; 4.5 ]
  in
  let rec non_increasing = function
    | a :: (b :: _ as rest) -> b <= a +. 1e-9 && non_increasing rest
    | _ -> true
  in
  Alcotest.(check int) "all feasible" 5 (List.length energies);
  Alcotest.(check bool) "monotone" true (non_increasing energies)

let test_chain_respects_max_n () =
  let _, m = chain_instance ~seed:89 ~n:25 in
  Alcotest.(check bool) "guard triggers" true
    (match Tricrit_chain.solve_exact ~rel ~deadline:100. m with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* equal-speed re-execution optimality: 2D scan over (f1, f2) pairs for
   a single task under a time budget never beats the equal-speed
   choice *)
let test_equal_speed_reexec_optimal () =
  let w = 2. in
  let budget = 12. in
  (* equal speeds: f = max(flo, 2w/budget) *)
  let flo =
    match Rel.min_reexec_speed rel ~w with
    | Some f -> f
    | None -> Alcotest.fail "re-execution speed floor exists"
  in
  let f_eq = Float.max (Float.max flo rel.Rel.fmin) (2. *. w /. budget) in
  let e_eq = 2. *. w *. f_eq *. f_eq in
  let target = Rel.target_failure rel ~w in
  let best_uneq = ref infinity in
  let steps = 60 in
  for i = 0 to steps do
    for j = 0 to steps do
      let f1 = 0.2 +. (0.8 *. float_of_int i /. float_of_int steps) in
      let f2 = 0.2 +. (0.8 *. float_of_int j /. float_of_int steps) in
      let time = (w /. f1) +. (w /. f2) in
      let ok_rel = Rel.reexec_failure rel ~f1 ~f2 ~w <= target *. (1. +. 1e-12) in
      if time <= budget && ok_rel then begin
        let e = (w *. f1 *. f1) +. (w *. f2 *. f2) in
        if e < !best_uneq then best_uneq := e
      end
    done
  done;
  Alcotest.(check bool)
    (Printf.sprintf "equal speeds optimal (%.5f vs grid %.5f)" e_eq !best_uneq)
    true
    (e_eq <= !best_uneq *. (1. +. 1e-2))

(* fork *)

let test_fork_best_in_window_prefers_cheap () =
  (* huge window: re-execution at a low speed wins over single at frel *)
  match Tricrit_fork.best_in_window ~rel ~w:1. ~window:100. with
  | None -> Alcotest.fail "feasible"
  | Some d -> Alcotest.(check bool) "re-executes" true d.Tricrit_fork.reexec

let test_fork_best_in_window_tight () =
  (* window barely fits a single execution at fmax *)
  match Tricrit_fork.best_in_window ~rel ~w:1. ~window:1.01 with
  | None -> Alcotest.fail "feasible"
  | Some d ->
    Alcotest.(check bool) "single" true (not d.Tricrit_fork.reexec);
    Alcotest.(check bool) "fast" true (d.Tricrit_fork.speed >= 0.8)

let test_fork_best_in_window_infeasible () =
  Alcotest.(check bool) "window too small" true
    (Tricrit_fork.best_in_window ~rel ~w:1. ~window:0.5 = None)

let test_fork_solver_feasible () =
  let rng = Es_util.Rng.create ~seed:90 in
  let dag = Generators.fork rng ~n:6 ~wlo:0.5 ~whi:3. in
  let dmin =
    List_sched.makespan_at_speed (Mapping.one_task_per_proc dag) ~f:1.
  in
  List.iter
    (fun slack ->
      let deadline = slack *. dmin in
      match Tricrit_fork.solve ~rel ~deadline dag with
      | None -> Alcotest.failf "feasible at slack %.1f" slack
      | Some sol ->
        Alcotest.(check bool) "validator accepts" true
          (Validate.is_feasible ~deadline ~rel ~model sol.Tricrit_fork.schedule))
    [ 1.05; 1.5; 2.5; 4. ]

let test_fork_beats_or_matches_heuristics () =
  let rng = Es_util.Rng.create ~seed:91 in
  let dag = Generators.fork rng ~n:6 ~wlo:0.5 ~whi:3. in
  let mapping = Mapping.one_task_per_proc dag in
  let dmin = List_sched.makespan_at_speed mapping ~f:1. in
  List.iter
    (fun slack ->
      let deadline = slack *. dmin in
      match (Tricrit_fork.solve ~rel ~deadline dag, Heuristics.best_of ~rel ~deadline mapping) with
      | Some poly, Some (heur, _) ->
        Alcotest.(check bool)
          (Printf.sprintf "poly %.4f <= heuristic %.4f (slack %.1f)"
             poly.Tricrit_fork.energy heur.Heuristics.energy slack)
          true
          (poly.Tricrit_fork.energy <= heur.Heuristics.energy *. (1. +. 1e-3))
      | None, None -> ()
      | _ -> Alcotest.fail "feasibility disagreement")
    [ 1.2; 2.; 3. ]

let test_fork_rejects_non_fork () =
  let chain = Sp.to_dag (Sp.chain [| 1.; 2.; 1. |]) in
  Alcotest.(check bool) "not a fork" true
    (match Tricrit_fork.solve ~rel ~deadline:10. chain with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_fork_source_window_sane () =
  let rng = Es_util.Rng.create ~seed:92 in
  let dag = Generators.fork rng ~n:4 ~wlo:1. ~whi:2. in
  let deadline = 10. in
  match Tricrit_fork.solve ~rel ~deadline dag with
  | None -> Alcotest.fail "feasible"
  | Some sol ->
    Alcotest.(check bool) "window inside (0, D)" true
      (sol.Tricrit_fork.source_window > 0. && sol.Tricrit_fork.source_window < deadline)

let suite =
  ( "tricrit",
    [
      Alcotest.test_case "waterfill uniform" `Quick test_waterfill_uniform_no_floors;
      Alcotest.test_case "waterfill floor clamps" `Quick test_waterfill_floor_clamps;
      Alcotest.test_case "waterfill deadline tight" `Quick test_waterfill_deadline_tight;
      Alcotest.test_case "waterfill infeasible" `Quick test_waterfill_infeasible;
      Alcotest.test_case "waterfill KKT" `Quick test_waterfill_time_exhausted_or_floors;
      QCheck_alcotest.to_alcotest qcheck_waterfill_references;
      Alcotest.test_case "chain: tight deadline, no re-exec" `Quick
        test_chain_no_reexec_at_tight_deadline;
      Alcotest.test_case "chain: slack brings re-exec" `Quick test_chain_reexec_appears_with_slack;
      Alcotest.test_case "chain: exact beats baseline" `Quick test_chain_exact_beats_baseline;
      Alcotest.test_case "chain: greedy near exact" `Slow test_chain_greedy_close_to_exact;
      Alcotest.test_case "chain: schedules validate" `Quick test_chain_schedules_validate;
      Alcotest.test_case "chain: infeasible deadline" `Quick test_chain_infeasible_deadline;
      Alcotest.test_case "chain: monotone in deadline" `Quick test_chain_energy_monotone_in_deadline;
      Alcotest.test_case "chain: max_n guard" `Quick test_chain_respects_max_n;
      Alcotest.test_case "equal-speed re-exec optimal" `Slow test_equal_speed_reexec_optimal;
      Alcotest.test_case "fork: window prefers cheap" `Quick test_fork_best_in_window_prefers_cheap;
      Alcotest.test_case "fork: tight window" `Quick test_fork_best_in_window_tight;
      Alcotest.test_case "fork: window infeasible" `Quick test_fork_best_in_window_infeasible;
      Alcotest.test_case "fork: solver feasible" `Quick test_fork_solver_feasible;
      Alcotest.test_case "fork: poly <= heuristics" `Slow test_fork_beats_or_matches_heuristics;
      Alcotest.test_case "fork: rejects non-fork" `Quick test_fork_rejects_non_fork;
      Alcotest.test_case "fork: window sane" `Quick test_fork_source_window_sane;
    ] )
