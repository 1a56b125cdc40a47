(* Tests for BI-CRIT under VDD-HOPPING (R3/R4): the LP optimum sits
   between the continuous bound and any single-speed discrete solution,
   uses at most two consecutive speeds per task, and the
   continuous-to-vdd emulation is feasible and time-exact. *)

let levels = [| 0.2; 0.4; 0.6; 0.8; 1.0 |]
let model = Speed.vdd_hopping levels

let instance ~seed ~p =
  let rng = Es_util.Rng.create ~seed in
  let dag = Generators.random_layered rng ~layers:4 ~width:3 ~density:0.5 ~wlo:1. ~whi:3. in
  let mapping = List_sched.schedule dag ~p ~priority:List_sched.Bottom_level in
  let dmin = List_sched.makespan_at_speed mapping ~f:1. in
  (mapping, dmin)

let test_lp_feasible_schedule () =
  let mapping, dmin = instance ~seed:51 ~p:2 in
  let deadline = 1.4 *. dmin in
  match Bicrit_vdd.solve ~deadline ~levels mapping with
  | None -> Alcotest.fail "expected feasible"
  | Some sched ->
    Alcotest.(check bool) "validator accepts" true
      (Validate.is_feasible ~deadline ~model sched)

let test_lp_infeasible_detected () =
  let mapping, dmin = instance ~seed:52 ~p:2 in
  Alcotest.(check bool) "too tight" true
    (Bicrit_vdd.solve ~deadline:(0.5 *. dmin) ~levels mapping = None)

let test_two_speed_support () =
  List.iter
    (fun seed ->
      let mapping, dmin = instance ~seed ~p:2 in
      let deadline = 1.6 *. dmin in
      match Bicrit_vdd.solve ~deadline ~levels mapping with
      | None -> Alcotest.fail "expected feasible"
      | Some sched ->
        Alcotest.(check bool) "two consecutive speeds" true
          (Bicrit_vdd.two_speed_support ~levels sched))
    [ 53; 54; 55; 56 ]

let test_lp_between_continuous_and_discrete () =
  (* ported onto the Es_check model-dominance oracle (which checks the
     full E_CONT <= E_VDD <= E_INCR <= E_DISCRETE chain plus round-up
     dominance); the instance is kept small enough that the oracle
     runs the exact solvers instead of skipping *)
  let relation =
    match Es_check.Relation.find "model-dominance" with
    | Some r -> r
    | None -> Alcotest.fail "model-dominance registered"
  in
  let rng = Es_util.Rng.create ~seed:57 in
  let dag = Generators.random_layered rng ~layers:3 ~width:2 ~density:0.5 ~wlo:1. ~whi:3. in
  let inst = Es_check.Gen.of_dag ~shape:Es_check.Gen.Layered ~procs:2 ~slack:1.5 ~levels dag in
  match relation.Es_check.Relation.run inst with
  | Es_check.Relation.Pass -> ()
  | Es_check.Relation.Skip msg -> Alcotest.fail ("oracle must not skip here: " ^ msg)
  | Es_check.Relation.Fail msg ->
    Alcotest.fail (msg ^ "\non instance:\n" ^ Es_check.Gen.describe inst)

let test_lp_tightens_with_more_levels () =
  (* refining the level set can only help *)
  let mapping, dmin = instance ~seed:58 ~p:2 in
  let deadline = 1.5 *. dmin in
  let coarse = [| 0.2; 1.0 |] in
  let fine = [| 0.2; 0.4; 0.6; 0.8; 1.0 |] in
  match
    (Bicrit_vdd.energy ~deadline ~levels:coarse mapping,
     Bicrit_vdd.energy ~deadline ~levels:fine mapping)
  with
  | Some ec, Some ef -> Alcotest.(check bool) "finer no worse" true (ef <= ec *. (1. +. 1e-9))
  | _ -> Alcotest.fail "both feasible"

let test_emulation_time_exact () =
  let mapping, dmin = instance ~seed:59 ~p:2 in
  let deadline = 1.5 *. dmin in
  let n = Dag.n (Mapping.dag mapping) in
  match
    Bicrit_continuous.solve_general ~lo:(Array.make n 0.2) ~hi:(Array.make n 1.)
      ~deadline mapping
  with
  | None -> Alcotest.fail "continuous feasible"
  | Some { speeds; _ } -> (
    match Bicrit_vdd.emulate_continuous ~levels ~speeds mapping with
    | None -> Alcotest.fail "emulation in range"
    | Some sched ->
      let dag = Mapping.dag mapping in
      for i = 0 to n - 1 do
        let t_cont = Dag.weight dag i /. speeds.(i) in
        Alcotest.(check (float 1e-9))
          "per-task time preserved" t_cont (Schedule.duration sched i)
      done;
      Alcotest.(check bool) "feasible under vdd" true
        (Validate.is_feasible ~deadline ~model sched))

let test_emulation_energy_sandwich () =
  (* E_cont <= E_lp <= E_emulated *)
  let mapping, dmin = instance ~seed:60 ~p:3 in
  let deadline = 1.4 *. dmin in
  let n = Dag.n (Mapping.dag mapping) in
  match
    Bicrit_continuous.solve_general ~lo:(Array.make n 0.2) ~hi:(Array.make n 1.)
      ~deadline mapping
  with
  | None -> Alcotest.fail "continuous feasible"
  | Some { speeds; energy = e_cont } -> (
    match
      ( Bicrit_vdd.energy ~deadline ~levels mapping,
        Bicrit_vdd.emulate_continuous ~levels ~speeds mapping )
    with
    | Some e_lp, Some emu ->
      let e_emu = Schedule.energy emu in
      Alcotest.(check bool) "cont <= lp" true (e_cont <= e_lp *. (1. +. 1e-6));
      Alcotest.(check bool) "lp <= emulated" true (e_lp <= e_emu *. (1. +. 1e-6))
    | _ -> Alcotest.fail "both must exist")

let test_single_task_exact_mix () =
  (* one task, weight 1, deadline between the two levels' durations:
     the optimal mix is analytic *)
  let dag = Dag.make ?labels:None ~weights:[| 1. |] ~edges:[] in
  let mapping = Mapping.single_processor dag in
  let levels = [| 0.5; 1.0 |] in
  let deadline = 1.5 in
  (* α·0.5 + β·1 = 1, α + β = 1.5 → β = 0.5, α = 1.
     energy = 0.125·1 + 1·0.5 = 0.625 *)
  match Bicrit_vdd.energy ~deadline ~levels mapping with
  | Some e ->
    Alcotest.(check (float 1e-7)) "analytic mix" 0.625 e;
    (* the Es_check hull oracle derives the same value geometrically *)
    (match Es_check.Brute.vdd_chain_optimum ~levels ~weights:[| 1. |] ~deadline with
    | Some h -> Alcotest.(check (float 1e-9)) "hull oracle agrees" h e
    | None -> Alcotest.fail "hull oracle feasible")
  | None -> Alcotest.fail "feasible"

let qcheck_vdd_below_best_single_speed =
  QCheck.Test.make ~name:"vdd LP at least as good as any single level" ~count:30
    QCheck.(int_bound 10_000)
    (fun seed ->
      let rng = Es_util.Rng.create ~seed in
      let dag = Generators.chain rng ~n:(1 + Es_util.Rng.int rng 5) ~wlo:0.5 ~whi:2. in
      let mapping = Mapping.single_processor dag in
      let dmin = Dag.total_weight dag in
      let deadline = Es_util.Rng.uniform_in rng 1.1 3. *. dmin in
      match Bicrit_vdd.energy ~deadline ~levels mapping with
      | None -> false
      | Some e_lp ->
        (* best single level meeting the deadline *)
        let best_single =
          Array.to_list levels
          |> List.filter_map (fun f ->
                 if Dag.total_weight dag /. f <= deadline then
                   Some (Dag.total_weight dag *. f *. f)
                 else None)
          |> List.fold_left Float.min infinity
        in
        e_lp <= best_single *. (1. +. 1e-6))

(* bench/e2e solve-large's VDD Cholesky instance, unrenamed: 10×10
   tiled Cholesky (220 tasks) on 4 processors, the workload's 6-level
   menu, D = 1.6 × the fmax makespan.  A 573-row LP (1,138 rows with
   every implied row stated). *)
let solve_large_menu () =
  let rng = Es_util.Rng.create ~seed:0 in
  let fmax = Es_util.Rng.uniform_in rng 1. 3. in
  let fmin = fmax *. Es_util.Rng.uniform_in rng 0.15 0.4 in
  let step = (fmax -. fmin) /. 5. in
  Array.init 6 (fun i ->
      if i = 0 then fmin
      else if i = 5 then fmax
      else fmin +. (step *. (float_of_int i +. Es_util.Rng.uniform_in rng (-0.4) 0.4)))

(* The cold solve starts from the dual-feasible crash basis (no phase
   1, no fallback to the two-phase solve), and its pivots reuse the
   solve's buffers.  Words allocated straight on the major heap —
   arrays past the minor heap's 256-word limit, such as any m-long
   float array — are then a per-solve cost: measured 149 per pivot
   over 713 pivots (122 when L and U were per-column arrays, on the
   minor heap; 216 with every implied row stated), against 5,468
   over 2,115 two-phase pivots on the 1,138-row LP (about 4.75 m-long
   arrays each) when every pivot allocated its FTRAN and BTRAN
   results.  The bound is half of one m-long array. *)
let test_crash_start_allocation () =
  let module Obs = Es_obs.Obs in
  let levels = solve_large_menu () in
  let mapping =
    List_sched.schedule (Generators.cholesky ~n:10) ~p:4 ~priority:List_sched.Bottom_level
  in
  let deadline =
    1.6 *. List_sched.makespan_at_speed mapping ~f:levels.(Array.length levels - 1)
  in
  let m = Es_lp.Problem.n_constraints (Bicrit_vdd.lp ~deadline ~levels mapping) in
  let pivots = Obs.counter "simplex_pivots" in
  let phase1 = Obs.counter "simplex_phase1_pivots" in
  let fallbacks = Obs.counter "lp_warm_cold_fallbacks" in
  Obs.reset ();
  Obs.enable ();
  Fun.protect ~finally:(fun () -> Obs.disable ()) @@ fun () ->
  let _, promoted0, major0 = Gc.counters () in
  let sched = Bicrit_vdd.solve ~deadline ~levels mapping in
  let _, promoted1, major1 = Gc.counters () in
  Alcotest.(check bool) "feasible" true (sched <> None);
  Alcotest.(check int) "no phase-1 pivots" 0 (Obs.value phase1);
  Alcotest.(check int) "no fallback" 0 (Obs.value fallbacks);
  let direct = major1 -. major0 -. (promoted1 -. promoted0) in
  let per_pivot = direct /. float_of_int (Obs.value pivots) in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f major-heap words per pivot (%d pivots) < m/2 = %d" per_pivot
       (Obs.value pivots) (m / 2))
    true
    (per_pivot < float_of_int m /. 2.)

(* ---- the reduced LP against the LP with every implied row ---------- *)

module Problem = Es_lp.Problem

(* [Bicrit_vdd.build]'s LP stated in full: a deadline row for every
   task and a precedence row for every constraint-DAG edge, with the
   same columns, work rows, (scaled) reliability rows and open-choice
   rows. *)
let full_lp ~deadline ~levels ~(reliability : Bicrit_vdd.reliability option) mapping =
  let cdag = Mapping.constraint_dag mapping in
  let n = Dag.n cdag in
  let lp = Problem.create () in
  let executions i =
    match reliability with Some r -> Array.length r.budgets.(i) | None -> 1
  in
  let alpha =
    Array.init n (fun i ->
        Array.init (executions i) (fun _ ->
            Array.map (fun f -> Problem.var lp ~obj:(f *. f *. f) ()) levels))
  in
  let start = Array.init n (fun _ -> Problem.var lp ()) in
  let weight = Array.init n (fun i -> if executions i = 3 then Some (Problem.var lp ()) else None) in
  let time i =
    List.concat_map (fun a -> List.map (fun v -> (1., v)) (Array.to_list a)) (Array.to_list alpha.(i))
  in
  for i = 0 to n - 1 do
    Array.iteri
      (fun e a ->
        let terms coeffs = List.combine (Array.to_list coeffs) (Array.to_list a) in
        let row add coeffs v =
          match weight.(i) with
          | None -> add lp (terms coeffs) v
          | Some l when e = 0 -> add lp ((v, l) :: terms coeffs) v
          | Some l -> add lp ((-.v, l) :: terms coeffs) 0.
        in
        row Problem.eq levels (Dag.weight cdag i);
        Option.iter
          (fun (r : Bicrit_vdd.reliability) ->
            let budget = r.budgets.(i).(e) in
            let scale x = Float.ldexp x (-snd (Float.frexp budget)) in
            row Problem.le (Array.map scale r.rates) (scale budget))
          reliability)
      alpha.(i);
    Problem.le lp ((1., start.(i)) :: time i) deadline
  done;
  List.iter
    (fun (i, j) -> Problem.le lp (((1., start.(i)) :: time i) @ [ (-1., start.(j)) ]) 0.)
    (Dag.edges cdag);
  Array.iter
    (Option.iter (fun l ->
         Problem.le lp [ (1., l) ] 1.;
         Problem.le lp [ (-1., l) ] 0.))
    weight;
  lp

(* An [Es_check.Gen] instance of any shape, list-scheduled on 1-4
   processors, with no reliability requirement, with a fixed subset
   (per task one budget to run once or two, at a random split, to
   re-execute) or with every choice open, as in the TRI-CRIT
   relaxation. *)
let reduced_lp_case seed =
  let rng = Es_util.Rng.create ~seed in
  let shapes = Array.of_list Es_check.Gen.all_shapes in
  let shape = shapes.(seed mod Array.length shapes) in
  let inst = Es_check.Gen.generate ~shapes:[ shape ] rng in
  let levels = inst.levels in
  let fmin = levels.(0) and fmax = levels.(Array.length levels - 1) in
  let mapping =
    List_sched.schedule (Es_check.Gen.dag inst) ~p:(1 + Es_util.Rng.int rng 4)
      ~priority:List_sched.Bottom_level
  in
  let deadline = inst.slack *. List_sched.makespan_at_speed mapping ~f:fmax in
  let reliability =
    match Es_util.Rng.int rng 3 with
    | 0 -> None
    | mode ->
      let rel =
        Rel.make
          ~lambda0:(10. ** Es_util.Rng.uniform_in rng (-9.) (-1.))
          ~sensitivity:(Es_util.Rng.uniform_in rng 0. 8.)
          ~frel:(Es_util.Rng.uniform_in rng fmin fmax) ~fmin ~fmax ()
      in
      let budgets =
        Array.map
          (fun w ->
            let t = Rel.target_failure rel ~w in
            if mode = 2 then [| t; sqrt t; sqrt t |]
            else if Es_util.Rng.bool rng then [| t |]
            else
              let theta = Es_util.Rng.uniform_in rng 0.15 0.85 in
              [| t ** theta; t ** (1. -. theta) |])
          inst.weights
      in
      Some { Bicrit_vdd.rates = Array.map (fun f -> Rel.rate rel ~f) levels; budgets }
  in
  (mapping, levels, deadline, reliability)

let same_optimum ~what (full : Es_lp.Revised.outcome) (reduced : Problem.outcome) =
  match (full, reduced) with
  | Es_lp.Revised.Optimal { objective; _ }, Problem.Solution s ->
    let e = Problem.objective s in
    Float.abs (e -. objective) <= 1e-9 *. Float.max (Float.abs e) (Float.abs objective)
    || QCheck.Test.fail_reportf "%s: reduced LP %.17g, full LP %.17g" what e objective
  | Es_lp.Revised.Infeasible, Problem.Infeasible | Es_lp.Revised.Unbounded, Problem.Unbounded -> true
  | _ -> QCheck.Test.fail_reportf "%s: the reduced and the full LP disagree on the outcome" what

let qcheck_reduced_lp =
  QCheck.Test.make ~name:"reduced LP optimum = LP with every implied row" ~count:300
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let mapping, levels, deadline, reliability = reduced_lp_case seed in
      let full = full_lp ~deadline ~levels ~reliability mapping in
      let reference =
        Dense_simplex.solve ~obj:(Problem.objective_coeffs full) (Problem.constraints full)
      in
      let b = Bicrit_vdd.build ~deadline ~levels ~reliability mapping in
      let sp = Problem.to_sparse (Bicrit_vdd.problem b) in
      (* each LP the way the library solves it: every one from the
         crash basis, a fixed subset's also two-phase *)
      let open_choice =
        match reliability with
        | Some r -> Array.exists (fun b -> Array.length b = 3) r.budgets
        | None -> false
      in
      same_optimum ~what:"crash start" reference
        (fst (Problem.solve_sparse ~basis:(Bicrit_vdd.crash b sp) sp))
      && (open_choice || same_optimum ~what:"two-phase" reference (Problem.solve (Bicrit_vdd.problem b))))

(* Six tasks on two processors, P0 = 0 1 3 5 and P1 = 2 4, over the DAG
   edges 0→1 0→2 0→3 1→3 2→3 3→4 3→5 4→5.  The constraint DAG adds
   2→4, whose other path is 2→3→4; 0→3 (via 1) and 3→5 (via 4) are
   implied too.  Six work rows, one deadline row (task 5, the only
   sink) and six precedence rows: 13, where every row of the full
   statement would make 6 + 6 + 9 = 21. *)
let test_row_count () =
  let dag =
    Dag.make ?labels:None ~weights:(Array.make 6 1.)
      ~edges:[ (0, 1); (0, 2); (0, 3); (1, 3); (2, 3); (3, 4); (3, 5); (4, 5) ]
  in
  let mapping = Mapping.make ~p:2 dag ~order:[| [ 0; 1; 3; 5 ]; [ 2; 4 ] |] in
  let reduced = Dag.transitive_reduction (Mapping.constraint_dag mapping) in
  Alcotest.(check (list (pair int int)))
    "reduced edges"
    [ (0, 1); (0, 2); (1, 3); (2, 3); (3, 4); (4, 5) ]
    (List.sort (fun (a, b) (c, d) -> if a = c then Int.compare b d else Int.compare a c) (Dag.edges reduced));
  Alcotest.(check int) "rows" 13
    (Problem.n_constraints (Bicrit_vdd.lp ~deadline:10. ~levels mapping))

(* ---- the deadline sweep ------------------------------------------- *)

(* [Bicrit_vdd.energy_sweep]'s reference: the LP rebuilt at each
   deadline and solved from the previous solve's basis, visiting the
   deadlines in [order]; the first step, and any after an infeasible
   one, from the crash basis.  Energies in input order. *)
let chained_energies ~levels mapping deadlines order =
  let crash = Bicrit_vdd.crash_basis ~levels mapping in
  let basis = ref None in
  let energies = Array.make (Array.length deadlines) None in
  Array.iter
    (fun i ->
      let lp = Bicrit_vdd.lp ~deadline:deadlines.(i) ~levels mapping in
      let outcome, next = Problem.solve_warm ~basis:(Option.value !basis ~default:crash) lp in
      basis := next;
      energies.(i) <-
        (match outcome with
        | Problem.Solution s -> Some (Problem.objective s)
        | Problem.Infeasible -> None
        | Problem.Unbounded -> Alcotest.fail "VDD LP unbounded"))
    order;
  energies

(* Loosest first; equal deadlines keep their input order. *)
let loosest_first deadlines =
  let order = Array.init (Array.length deadlines) Fun.id in
  Array.stable_sort (fun i j -> Float.compare deadlines.(j) deadlines.(i)) order;
  order

(* An [Es_check.Gen] instance and 2-30 deadlines in random order over
   [0.9·dmin, 1.2·dslow], dmin and dslow the makespans at fmax and
   fmin: some infeasible, some past the point where the crash basis is
   optimal, and about one in five a repeat of an earlier one. *)
let sweep_case seed =
  let rng = Es_util.Rng.create ~seed in
  let inst = Es_check.Gen.generate rng in
  let mapping = Es_check.Gen.mapping inst in
  let dmin = Es_check.Gen.dmin inst in
  let dslow = List_sched.makespan_at_speed mapping ~f:(Es_check.Gen.fmin inst) in
  let deadlines = Array.make (2 + Es_util.Rng.int rng 29) 0. in
  Array.iteri
    (fun i _ ->
      deadlines.(i) <-
        (if i > 0 && Es_util.Rng.int rng 5 = 0 then deadlines.(Es_util.Rng.int rng i)
         else Es_util.Rng.uniform_in rng (0.9 *. dmin) (1.2 *. dslow)))
    deadlines;
  (inst.levels, mapping, deadlines)

let qcheck_sweep =
  QCheck.Test.make ~name:"sweep = energy at each deadline = loosest-first chain" ~count:200
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let levels, mapping, deadlines = sweep_case seed in
      let swept = Bicrit_vdd.energy_sweep ~deadlines ~levels mapping in
      let chained = chained_energies ~levels mapping deadlines (loosest_first deadlines) in
      let show = function None -> "infeasible" | Some e -> Printf.sprintf "%.17g" e in
      let agree i deadline =
        let single = Bicrit_vdd.energy ~deadline ~levels mapping in
        (match (swept.(i), single) with
        | None, None -> true
        | Some s, Some e -> Float.abs (s -. e) <= 1e-9 *. Float.max (Float.abs s) (Float.abs e)
        | _ -> false)
        && (match (swept.(i), chained.(i)) with
           | None, None -> true
           | Some s, Some c -> Int64.equal (Int64.bits_of_float s) (Int64.bits_of_float c)
           | _ -> false)
        || QCheck.Test.fail_reportf "deadline %d (%.17g): sweep %s, energy %s, chain %s" i deadline
             (show swept.(i)) (show single) (show chained.(i))
      in
      Array.for_all Fun.id (Array.mapi agree deadlines))

(* `esched pareto -w layered -n 60 --seed 7 --vdd`'s front: 60 tasks on
   four processors, eight deadlines from 1.05 to 6 times the fmax
   makespan, tightest first.  Chained in that order the LPs take 206
   dual pivots; loosest first, 114. *)
let test_sweep_loosest_first () =
  let module Obs = Es_obs.Obs in
  let rng = Es_util.Rng.create ~seed:7 in
  let dag = Generators.random_layered rng ~layers:15 ~width:4 ~density:0.4 ~wlo:0.5 ~whi:3. in
  let mapping = List_sched.schedule dag ~p:4 ~priority:List_sched.Bottom_level in
  let dmin = List_sched.makespan_at_speed mapping ~f:1. in
  let deadlines = Array.map (fun s -> s *. dmin) [| 1.05; 1.2; 1.5; 2.; 2.5; 3.; 4.; 6. |] in
  let dual = Obs.counter "simplex_dual_pivots" in
  let counted f =
    Obs.reset ();
    Obs.enable ();
    Fun.protect ~finally:(fun () -> Obs.disable ()) @@ fun () ->
    let r = f () in
    (r, Obs.value dual)
  in
  let swept, sweep_pivots = counted (fun () -> Bicrit_vdd.energy_sweep ~deadlines ~levels mapping) in
  let in_order, in_order_pivots =
    counted (fun () -> chained_energies ~levels mapping deadlines (Array.init 8 Fun.id))
  in
  Array.iteri
    (fun i e ->
      match (e, in_order.(i)) with
      | Some s, Some c -> Alcotest.(check (float (1e-12 *. c))) "energy" c s
      | _ -> Alcotest.fail "every deadline of the front is feasible")
    swept;
  Alcotest.(check bool)
    (Printf.sprintf "sweep %d < input-order chain %d dual pivots" sweep_pivots in_order_pivots)
    true (sweep_pivots < in_order_pivots)

(* The same front with three deadlines below the fmax makespan among
   four feasible ones: the sweep solves the four, then the loosest
   infeasible deadline, and answers the other two without a solve. *)
let test_sweep_stops_at_infeasible () =
  let module Obs = Es_obs.Obs in
  let rng = Es_util.Rng.create ~seed:7 in
  let dag = Generators.random_layered rng ~layers:15 ~width:4 ~density:0.4 ~wlo:0.5 ~whi:3. in
  let mapping = List_sched.schedule dag ~p:4 ~priority:List_sched.Bottom_level in
  let dmin = List_sched.makespan_at_speed mapping ~f:1. in
  let deadlines = Array.map (fun s -> s *. dmin) [| 0.7; 2.; 0.95; 1.05; 3.; 0.5; 1.5 |] in
  let solves = Obs.counter "lp_solves" in
  Obs.reset ();
  Obs.enable ();
  let swept =
    Fun.protect ~finally:(fun () -> Obs.disable ()) @@ fun () ->
    Bicrit_vdd.energy_sweep ~deadlines ~levels mapping
  in
  Alcotest.(check int) "LP solves: 4 feasible + 1" 5 (Obs.value solves);
  Array.iteri
    (fun i deadline ->
      match (swept.(i), Bicrit_vdd.energy ~deadline ~levels mapping) with
      | None, None -> ()
      | Some s, Some e -> Alcotest.(check (float (1e-9 *. e))) "energy" e s
      | _ -> Alcotest.fail (Printf.sprintf "deadline %d: feasibility differs" i))
    deadlines

let suite =
  ( "bicrit-vdd",
    [
      Alcotest.test_case "lp feasible schedule" `Quick test_lp_feasible_schedule;
      Alcotest.test_case "lp infeasible detected" `Quick test_lp_infeasible_detected;
      Alcotest.test_case "crash start allocation" `Quick test_crash_start_allocation;
      Alcotest.test_case "two-speed support" `Quick test_two_speed_support;
      Alcotest.test_case "cont <= vdd <= discrete" `Slow test_lp_between_continuous_and_discrete;
      Alcotest.test_case "more levels help" `Quick test_lp_tightens_with_more_levels;
      Alcotest.test_case "emulation time-exact" `Quick test_emulation_time_exact;
      Alcotest.test_case "emulation energy sandwich" `Quick test_emulation_energy_sandwich;
      Alcotest.test_case "single task analytic mix" `Quick test_single_task_exact_mix;
      QCheck_alcotest.to_alcotest qcheck_vdd_below_best_single_speed;
      Alcotest.test_case "rows: sinks and reduced edges" `Quick test_row_count;
      QCheck_alcotest.to_alcotest qcheck_reduced_lp;
      QCheck_alcotest.to_alcotest qcheck_sweep;
      Alcotest.test_case "sweep: fewer pivots loosest first" `Quick test_sweep_loosest_first;
      Alcotest.test_case "sweep: none solved past an infeasible deadline" `Quick
        test_sweep_stops_at_infeasible;
    ] )
