(* Tests for the simplex solver and the LP problem builder, including a
   brute-force cross-check on random small LPs: the simplex optimum
   must match the best vertex found by enumerating constraint
   intersections. *)

module Sparse = Es_lp.Sparse
module Revised = Es_lp.Revised
module Problem = Es_lp.Problem

let check_float = Alcotest.(check (float 1e-7))

(* A cold revised-simplex solve of dense rows. *)
let solve_rows ~obj rows = fst (Revised.solve (Sparse.of_rows ~obj rows))

let constr coeffs relation rhs = { Sparse.coeffs; relation; rhs }

let test_simple_min () =
  (* min x + y  s.t. x + 2y >= 4, 3x + y >= 6, x,y >= 0.
     Optimum at intersection: x = 8/5, y = 6/5, value 14/5. *)
  match
    solve_rows ~obj:[| 1.; 1. |]
      [ constr [| 1.; 2. |] Sparse.Ge 4.; constr [| 3.; 1. |] Sparse.Ge 6. ]
  with
  | Revised.Optimal { objective; solution } ->
    check_float "objective" 2.8 objective;
    check_float "x" 1.6 solution.(0);
    check_float "y" 1.2 solution.(1)
  | _ -> Alcotest.fail "expected optimal"

let test_le_only () =
  (* min -x - 2y s.t. x + y <= 4, y <= 3 → x=1,y=3, value -7 *)
  match
    solve_rows ~obj:[| -1.; -2. |]
      [ constr [| 1.; 1. |] Sparse.Le 4.; constr [| 0.; 1. |] Sparse.Le 3. ]
  with
  | Revised.Optimal { objective; _ } -> check_float "objective" (-7.) objective
  | _ -> Alcotest.fail "expected optimal"

let test_equality () =
  (* min x + 3y s.t. x + y = 2 → x=2, y=0 *)
  match solve_rows ~obj:[| 1.; 3. |] [ constr [| 1.; 1. |] Sparse.Eq 2. ] with
  | Revised.Optimal { objective; solution } ->
    check_float "objective" 2. objective;
    check_float "y stays 0" 0. solution.(1)
  | _ -> Alcotest.fail "expected optimal"

let test_infeasible () =
  match
    solve_rows ~obj:[| 1. |]
      [ constr [| 1. |] Sparse.Ge 3.; constr [| 1. |] Sparse.Le 1. ]
  with
  | Revised.Infeasible -> ()
  | _ -> Alcotest.fail "expected infeasible"

let test_unbounded () =
  match solve_rows ~obj:[| -1. |] [ constr [| -1. |] Sparse.Le 0. ] with
  | Revised.Unbounded -> ()
  | _ -> Alcotest.fail "expected unbounded"

let test_negative_rhs_normalised () =
  (* x >= 2 written as -x <= -2 *)
  match solve_rows ~obj:[| 1. |] [ constr [| -1. |] Sparse.Le (-2.) ] with
  | Revised.Optimal { objective; _ } -> check_float "objective" 2. objective
  | _ -> Alcotest.fail "expected optimal"

let test_degenerate_terminates () =
  (* classic degeneracy: redundant constraints through the optimum *)
  match
    solve_rows ~obj:[| -1.; -1. |]
      [
        constr [| 1.; 0. |] Sparse.Le 1.;
        constr [| 0.; 1. |] Sparse.Le 1.;
        constr [| 1.; 1. |] Sparse.Le 2.;
        constr [| 2.; 2. |] Sparse.Le 4.;
      ]
  with
  | Revised.Optimal { objective; _ } -> check_float "objective" (-2.) objective
  | _ -> Alcotest.fail "expected optimal"

exception Singular

(* Gaussian elimination with partial pivoting, on copies of [a] and [b]. *)
let gauss_solve a b =
  let n = Array.length b in
  let a = Array.map Array.copy a and b = Array.copy b in
  let swap v i j =
    let t = v.(i) in
    v.(i) <- v.(j);
    v.(j) <- t
  in
  for k = 0 to n - 1 do
    let p = ref k in
    for i = k + 1 to n - 1 do
      if Float.abs a.(i).(k) > Float.abs a.(!p).(k) then p := i
    done;
    if Float.abs a.(!p).(k) < 1e-300 then raise Singular;
    swap a k !p;
    swap b k !p;
    for i = k + 1 to n - 1 do
      let f = a.(i).(k) /. a.(k).(k) in
      for j = k to n - 1 do
        a.(i).(j) <- a.(i).(j) -. (f *. a.(k).(j))
      done;
      b.(i) <- b.(i) -. (f *. b.(k))
    done
  done;
  let x = Array.make n 0. in
  for i = n - 1 downto 0 do
    let acc = ref b.(i) in
    for j = i + 1 to n - 1 do
      acc := !acc -. (a.(i).(j) *. x.(j))
    done;
    x.(i) <- !acc /. a.(i).(i)
  done;
  x

(* Brute-force LP reference: enumerate all choices of n constraints
   (from rows plus axes), solve the linear system, keep feasible points,
   return the best objective.  Sound for bounded non-degenerate LPs. *)
let brute_force ~obj rows =
  let n = Array.length obj in
  let planes =
    (* each row as (coeffs, rhs) equality candidate; plus axes x_i = 0 *)
    List.map (fun (r : Sparse.constr) -> (r.coeffs, r.rhs)) rows
    @ List.init n (fun i -> (Array.init n (fun j -> if i = j then 1. else 0.), 0.))
  in
  let planes = Array.of_list planes in
  let m = Array.length planes in
  let best = ref None in
  let feasible x =
    Array.for_all (fun v -> v >= -1e-7) x
    && List.for_all
         (fun (r : Sparse.constr) ->
           let lhs = ref 0. in
           Array.iteri (fun i c -> lhs := !lhs +. (c *. x.(i))) r.coeffs;
           match r.relation with
           | Sparse.Le -> !lhs <= r.rhs +. 1e-7
           | Sparse.Ge -> !lhs >= r.rhs -. 1e-7
           | Sparse.Eq -> Float.abs (!lhs -. r.rhs) <= 1e-7)
         rows
  in
  let rec choose k start acc =
    if k = 0 then begin
      let a = Array.of_list (List.rev_map (fun i -> Array.copy (fst planes.(i))) acc) in
      let b = Array.of_list (List.rev_map (fun i -> snd planes.(i)) acc) in
      match gauss_solve a b with
      | x when feasible x ->
        let v = ref 0. in
        Array.iteri (fun i c -> v := !v +. (c *. x.(i))) obj;
        (match !best with
        | Some bv when bv <= !v -> ()
        | _ -> best := Some !v)
      | _ -> ()
      | exception Singular -> ()
    end
    else
      for i = start to m - 1 do
        choose (k - 1) (i + 1) (i :: acc)
      done
  in
  choose n 0 [];
  !best

let qcheck_simplex_matches_brute_force =
  QCheck.Test.make ~name:"simplex matches vertex enumeration" ~count:60
    QCheck.(int_bound 100_000)
    (fun seed ->
      let rng = Es_util.Rng.create ~seed in
      let n = 2 + Es_util.Rng.int rng 2 in
      let m = 2 + Es_util.Rng.int rng 3 in
      (* keep the polytope bounded with a box row, keep costs positive *)
      let rows =
        List.init m (fun _ ->
            let coeffs = Array.init n (fun _ -> Es_util.Rng.uniform_in rng 0.1 2.) in
            constr coeffs Sparse.Ge (Es_util.Rng.uniform_in rng 0.5 4.))
      in
      let obj = Array.init n (fun _ -> Es_util.Rng.uniform_in rng 0.2 2.) in
      match (solve_rows ~obj rows, brute_force ~obj rows) with
      | Revised.Optimal { objective; _ }, Some bf -> Float.abs (objective -. bf) < 1e-5
      | Revised.Infeasible, None -> true
      | _ -> false)

let test_problem_builder () =
  let lp = Problem.create () in
  let x = Problem.var lp ~obj:2. () in
  let y = Problem.var lp ~obj:3. () in
  Problem.ge lp [ (1., x); (1., y) ] 10.;
  Problem.le lp [ (1., x) ] 4.;
  (* min 2x + 3y, x+y >= 10, x <= 4 → x=4, y=6, value 26 *)
  match Problem.solve lp with
  | Problem.Solution s ->
    check_float "objective" 26. (Problem.objective s);
    check_float "x" 4. (Problem.value s x);
    check_float "y" 6. (Problem.value s y)
  | _ -> Alcotest.fail "expected solution"

let test_problem_upper_bound () =
  let lp = Problem.create () in
  let x = Problem.var lp ~obj:(-1.) () in
  Problem.upper_bound lp x 7.;
  match Problem.solve lp with
  | Problem.Solution s -> check_float "x at bound" 7. (Problem.value s x)
  | _ -> Alcotest.fail "expected solution"

let test_problem_counts () =
  let lp = Problem.create () in
  let x = Problem.var lp () in
  Problem.le lp [ (1., x) ] 1.;
  Problem.ge lp [ (1., x) ] 0.;
  Alcotest.(check int) "vars" 1 (Problem.n_vars lp);
  Alcotest.(check int) "rows" 2 (Problem.n_constraints lp)

let suite =
  ( "lp",
    [
      Alcotest.test_case "simple minimisation" `Quick test_simple_min;
      Alcotest.test_case "le-only problem" `Quick test_le_only;
      Alcotest.test_case "equality row" `Quick test_equality;
      Alcotest.test_case "infeasible detected" `Quick test_infeasible;
      Alcotest.test_case "unbounded detected" `Quick test_unbounded;
      Alcotest.test_case "negative rhs normalised" `Quick test_negative_rhs_normalised;
      Alcotest.test_case "degenerate instance terminates" `Quick test_degenerate_terminates;
      QCheck_alcotest.to_alcotest qcheck_simplex_matches_brute_force;
      Alcotest.test_case "problem builder" `Quick test_problem_builder;
      Alcotest.test_case "problem upper bound" `Quick test_problem_upper_bound;
      Alcotest.test_case "problem counts" `Quick test_problem_counts;
    ] )

(* --- duals ----------------------------------------------------------- *)

let test_duals_simple () =
  (* min x + y s.t. x + 2y >= 4, 3x + y >= 6: optimum (1.6, 1.2).
     Duals solve: y1 + 3y2 = 1, 2y1 + y2 = 1 → y1 = 0.4, y2 = 0.2. *)
  match
    solve_rows ~obj:[| 1.; 1. |]
      [ constr [| 1.; 2. |] Sparse.Ge 4.; constr [| 3.; 1. |] Sparse.Ge 6. ]
  with
  | Revised.Optimal { duals; _ } ->
    check_float "dual 1" 0.4 duals.(0);
    check_float "dual 2" 0.2 duals.(1)
  | _ -> Alcotest.fail "expected optimal"

let test_duals_nonbinding_row_zero () =
  (* min x s.t. x >= 2, x <= 100 — the upper bound is slack *)
  match
    solve_rows ~obj:[| 1. |]
      [ constr [| 1. |] Sparse.Ge 2.; constr [| 1. |] Sparse.Le 100. ]
  with
  | Revised.Optimal { duals; _ } ->
    check_float "binding" 1. duals.(0);
    check_float "slack row" 0. duals.(1)
  | _ -> Alcotest.fail "expected optimal"

let test_duals_equality () =
  (* min 2x + 3y s.t. x + y = 5 → all mass on x, dual = 2 *)
  match solve_rows ~obj:[| 2.; 3. |] [ constr [| 1.; 1. |] Sparse.Eq 5. ] with
  | Revised.Optimal { duals; _ } -> check_float "eq dual" 2. duals.(0)
  | _ -> Alcotest.fail "expected optimal"

let qcheck_duals_predict_rhs_perturbation =
  (* finite-difference check: objective(b + h) − objective(b) ≈ y·h for
     a small perturbation of one ≥ row *)
  QCheck.Test.make ~name:"duals = dObj/dRhs (finite differences)" ~count:40
    QCheck.(int_bound 100_000)
    (fun seed ->
      let rng = Es_util.Rng.create ~seed in
      let n = 2 + Es_util.Rng.int rng 2 in
      let rows b0 =
        List.init 3 (fun k ->
            let coeffs =
              Array.init n (fun j ->
                  (* deterministic per (seed, k, j): rebuild from a fresh
                     stream so both solves see identical rows *)
                  let r = Es_util.Rng.create ~seed:((seed * 31) + (k * 7) + j) in
                  Es_util.Rng.uniform_in r 0.2 2.)
            in
            constr coeffs Sparse.Ge (if k = 0 then b0 else 3.))
      in
      let obj =
        Array.init n (fun j ->
            let r = Es_util.Rng.create ~seed:((seed * 17) + j) in
            Es_util.Rng.uniform_in r 0.5 2.)
      in
      let h = 1e-5 in
      match (solve_rows ~obj (rows 3.), solve_rows ~obj (rows (3. +. h))) with
      | Revised.Optimal { objective = o1; duals; _ }, Revised.Optimal { objective = o2; _ }
        ->
        Float.abs (o2 -. o1 -. (duals.(0) *. h)) < 1e-7
      | _ -> false)

let duals_cases =
  [
    Alcotest.test_case "duals simple" `Quick test_duals_simple;
    Alcotest.test_case "duals nonbinding zero" `Quick test_duals_nonbinding_row_zero;
    Alcotest.test_case "duals equality" `Quick test_duals_equality;
    QCheck_alcotest.to_alcotest qcheck_duals_predict_rhs_perturbation;
  ]

let suite = (fst suite, snd suite @ duals_cases)

(* --- revised simplex: differential harness --------------------------- *)

(* The revised sparse core (Sparse + Lu + Revised) is locked against
   the dense tableau oracle (Dense_simplex): agreement on
   outcome class, objective to rtol 1e-8, and Lp_cert certification of
   both solvers' duals, over seeded random LPs with mixed row senses —
   plus warm-started re-solves against cold solves of the same
   restated problem. *)

module Lu = Es_lp.Lu
module Lp_cert = Es_check.Lp_cert
module CGen = Es_check.Gen

let close_rel ?(rtol = 1e-8) a b =
  Float.abs (a -. b)
  <= rtol *. Float.max 1. (Float.max (Float.abs a) (Float.abs b))

let is_certified ~obj ~constraints outcome =
  match Lp_cert.certify_outcome ~obj ~constraints outcome with
  | Some (Lp_cert.Certified _) -> true
  | Some (Lp_cert.Rejected _) -> false
  | None -> true (* Infeasible/Unbounded claims carry no certificate *)

let outcomes_agree ?rtol a b =
  match (a, b) with
  | Revised.Optimal { objective = oa; _ }, Revised.Optimal { objective = ob; _ }
    ->
    close_rel ?rtol oa ob
  | Revised.Infeasible, Revised.Infeasible -> true
  | Revised.Unbounded, Revised.Unbounded -> true
  | _ -> false

(* mixed-sense random LP; mostly positive objectives so a decent
   fraction is bounded, with a sprinkle of negative costs to exercise
   the Unbounded class on both solvers *)
let random_lp rng =
  let n = 2 + Es_util.Rng.int rng 3 in
  let m = 2 + Es_util.Rng.int rng 4 in
  let rows =
    List.init m (fun _ ->
        let coeffs =
          Array.init n (fun _ ->
              if Es_util.Rng.uniform_in rng 0. 1. < 0.25 then 0.
              else Es_util.Rng.uniform_in rng (-2.) 2.)
        in
        let relation =
          match Es_util.Rng.int rng 3 with
          | 0 -> Sparse.Le
          | 1 -> Sparse.Ge
          | _ -> Sparse.Eq
        in
        constr coeffs relation (Es_util.Rng.uniform_in rng (-2.) 4.))
  in
  let obj =
    Array.init n (fun _ ->
        if Es_util.Rng.uniform_in rng 0. 1. < 0.85 then
          Es_util.Rng.uniform_in rng 0.1 2.
        else Es_util.Rng.uniform_in rng (-1.) 0.)
  in
  (obj, rows)

let qcheck_differential_random =
  QCheck.Test.make
    ~name:"differential: revised vs dense on random mixed-sense LPs" ~count:300
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Es_util.Rng.create ~seed in
      let obj, rows = random_lp rng in
      let dense = Dense_simplex.solve ~obj rows in
      let revised = solve_rows ~obj rows in
      outcomes_agree dense revised
      && is_certified ~obj ~constraints:rows dense
      && is_certified ~obj ~constraints:rows revised)

let qcheck_differential_warm_random =
  QCheck.Test.make
    ~name:"differential: warm restart vs cold on perturbed rhs" ~count:300
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Es_util.Rng.create ~seed:(seed + 7_000_000) in
      let obj, rows = random_lp rng in
      let sp = Sparse.of_rows ~obj rows in
      match Revised.solve sp with
      | Revised.Infeasible, _ | Revised.Unbounded, _ -> true
      | Revised.Optimal _, None -> false (* optimal must return its basis *)
      | Revised.Optimal _, Some basis ->
        (* restate the same columns at a perturbed rhs: warm from the
           old basis must agree with a cold solve, and its duals must
           certify *)
        let rhs' =
          Array.map
            (fun v -> (v *. Es_util.Rng.uniform_in rng 0.8 1.2) +. 0.1)
            (Sparse.rhs sp)
        in
        let sp' = Sparse.with_rhs sp rhs' in
        let rows' =
          List.mapi
            (fun i (r : Sparse.constr) -> { r with rhs = rhs'.(i) })
            rows
        in
        let warm, _ = Revised.solve_from basis sp' in
        let cold, _ = Revised.solve sp' in
        outcomes_agree warm cold
        && is_certified ~obj ~constraints:rows' warm)

(* Structured instances: the Section-IV VDD LP over Es_check.Gen's
   shrinking generator, cold + warm (restated at a looser deadline)
   against the dense reference. *)
let qcheck_differential_vdd =
  QCheck2.Test.make
    ~name:"differential: vdd LP dense vs revised, cold and warm" ~count:250
    ~print:Qgen.qprint (Qgen.qgen ())
    (fun inst ->
      let mapping = CGen.mapping inst in
      let levels = inst.CGen.levels in
      let deadline = CGen.deadline inst in
      let check_at ?basis deadline =
        let lp = Bicrit_vdd.lp ~deadline ~levels mapping in
        let obj = Problem.objective_coeffs lp in
        let rows = Problem.constraints lp in
        let dense = Dense_simplex.solve ~obj rows in
        let outcome, next = Problem.solve_warm ?basis lp in
        let ok =
          match (dense, outcome) with
          | Revised.Optimal { objective = od; _ }, Problem.Solution s ->
            close_rel od (Problem.objective s)
            && (match Lp_cert.certify_problem lp s with
               | Lp_cert.Certified _ -> true
               | Lp_cert.Rejected _ -> false)
          | Revised.Infeasible, Problem.Infeasible -> true
          | Revised.Unbounded, Problem.Unbounded -> true
          | _ -> false
        in
        (ok, next)
      in
      let ok_cold, basis = check_at deadline in
      ok_cold
      &&
      match basis with
      | None -> true
      | Some _ ->
        fst (check_at ?basis deadline) (* warm re-solve of the same LP *)
        && fst (check_at ?basis (1.25 *. deadline))
        && fst (check_at ?basis (0.8 *. deadline)))

(* One solver re-solved through a chain of restatements, infeasible
   ones included: each outcome must have the class of an independent
   cold solve of the same statement, optima within 1e-9, and every
   optimum must certify against the restated rows.  Halfway through,
   the solver is handed [other], an LP with other columns or another
   objective, which must raise [Invalid_argument] and leave the
   solver as it was.  The random LPs' chain restates one [Sparse.t]
   (shared columns) and starts from the cold optimum's basis, or from
   no basis at all when there is none; the VDD chain rebuilds the LP
   at 3–8 deadlines in random order (columns compared entry for
   entry) and starts from the crash basis. *)
let resolve_chain ~what ~other solver statements =
  let half = List.length statements / 2 in
  List.for_all
    (fun (k, (sp, obj, rows)) ->
      (k <> half
      ||
      match Revised.resolve solver other with
      | exception Invalid_argument _ -> true
      | _ -> QCheck.Test.fail_reportf "%s: a re-solve accepted other columns" what)
      &&
      let warm, _ = Revised.resolve solver sp in
      let cold, _ = Revised.solve sp in
      (outcomes_agree ~rtol:1e-9 warm cold
      || QCheck.Test.fail_reportf "%s, step %d: the re-solve and a cold solve disagree" what k)
      && (is_certified ~obj ~constraints:rows warm
         || QCheck.Test.fail_reportf "%s, step %d: the re-solved optimum does not certify" what k))
    (List.mapi (fun k st -> (k, st)) statements)

let qcheck_resolve_chain =
  QCheck.Test.make ~name:"re-solve chain = cold solve at every rhs" ~count:200
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Es_util.Rng.create ~seed:(seed + 9_000_000) in
      let obj, rows = random_lp rng in
      let sp = Sparse.of_rows ~obj rows in
      let restated _ =
        let rhs =
          Array.map
            (fun v -> (v *. Es_util.Rng.uniform_in rng 0.5 1.5) +. Es_util.Rng.uniform_in rng (-1.) 1.)
            (Sparse.rhs sp)
        in
        ( Sparse.with_rhs sp rhs,
          obj,
          List.mapi (fun i (r : Sparse.constr) -> { r with rhs = rhs.(i) }) rows )
      in
      let start = Option.value (snd (Revised.solve sp)) ~default:(Revised.basis_of_columns [||]) in
      let inst = CGen.generate rng in
      let mapping = CGen.mapping inst and levels = inst.CGen.levels in
      let dmin = CGen.dmin inst in
      let dslow = List_sched.makespan_at_speed mapping ~f:(CGen.fmin inst) in
      let at deadline =
        let lp = Bicrit_vdd.lp ~deadline ~levels mapping in
        (Problem.to_sparse lp, Problem.objective_coeffs lp, Problem.constraints lp)
      in
      let deadlines =
        List.init (3 + Es_util.Rng.int rng 6) (fun _ ->
            Es_util.Rng.uniform_in rng (0.8 *. dmin) (1.2 *. dslow))
      in
      let started, _, _ = at dmin in
      resolve_chain ~what:"random LP"
        ~other:(Sparse.of_rows ~obj:(Array.map (fun c -> c +. 1.) obj) rows)
        (Revised.start start sp)
        (List.init (3 + Es_util.Rng.int rng 4) restated)
      && resolve_chain ~what:"VDD LP"
           ~other:
             (Problem.to_sparse
                (Bicrit_vdd.lp ~deadline:dmin ~levels:(Array.map (fun f -> 1.5 *. f) levels) mapping))
           (Revised.start (Bicrit_vdd.crash_basis ~levels mapping) started)
           (List.map at deadlines))

(* --- degeneracy regression corpus ------------------------------------ *)

(* Beale's classic cycling LP: Dantzig pricing with fixed tie-breaking
   can cycle forever on it; Bland's rule terminates.  Optimum −0.05 at
   x = (0.04, 0, 1, 0). *)
let beale_obj = [| -0.75; 150.; -0.02; 6. |]

let beale_rows =
  [
    constr [| 0.25; -60.; -0.04; 9. |] Sparse.Le 0.;
    constr [| 0.5; -90.; -0.02; 3. |] Sparse.Le 0.;
    constr [| 0.; 0.; 1.; 0. |] Sparse.Le 1.;
  ]

let test_beale_terminates () =
  match solve_rows ~obj:beale_obj beale_rows with
  | Revised.Optimal { objective; solution; _ } ->
    check_float "objective" (-0.05) objective;
    check_float "x3 at bound" 1. solution.(2)
  | _ -> Alcotest.fail "expected optimal"

let test_beale_pure_bland () =
  (* bland_after:1 forces Bland's rule from the first pivot *)
  match Revised.solve ~bland_after:1 (Sparse.of_rows ~obj:beale_obj beale_rows) with
  | Revised.Optimal { objective; _ }, Some _ -> check_float "objective" (-0.05) objective
  | _ -> Alcotest.fail "expected optimal with basis"

let test_duplicate_row_ties () =
  (* duplicated rows make every ratio-test step a tie at the same rhs:
     the Bland tie-break on basis index must still terminate *)
  let rows =
    [
      constr [| 1.; 1. |] Sparse.Le 2.;
      constr [| 1.; 1. |] Sparse.Le 2.;
      constr [| 1.; 1. |] Sparse.Le 2.;
      constr [| 2.; 2. |] Sparse.Le 4.;
      constr [| 1.; 0. |] Sparse.Le 1.5;
    ]
  in
  let obj = [| -1.; -1. |] in
  (match solve_rows ~obj rows with
  | Revised.Optimal { objective; _ } -> check_float "revised" (-2.) objective
  | _ -> Alcotest.fail "expected optimal");
  match Dense_simplex.solve ~obj rows with
  | Revised.Optimal { objective; _ } -> check_float "dense" (-2.) objective
  | _ -> Alcotest.fail "expected optimal"

let test_refactor_threshold () =
  (* refactor_every:1 rebuilds the LU at every pivot; the result must
     match the eta-file path, and the refactorisation counter must show
     the threshold actually firing *)
  let rng = Es_util.Rng.create ~seed:4242 in
  let obj, rows = random_lp rng in
  let sp = Sparse.of_rows ~obj rows in
  let c_refactor = Es_obs.Obs.counter "simplex_refactorizations" in
  let before = Es_obs.Obs.value c_refactor in
  Es_obs.Obs.enable ();
  let eager =
    Fun.protect
      ~finally:(fun () -> Es_obs.Obs.disable ())
      (fun () -> Revised.solve ~refactor_every:1 sp)
  in
  let lazy_ = Revised.solve ~refactor_every:10_000 sp in
  (match (fst eager, fst lazy_) with
  | Revised.Optimal { objective = a; _ }, Revised.Optimal { objective = b; _ } ->
    check_float "same optimum" a b
  | Revised.Infeasible, Revised.Infeasible -> ()
  | _ -> Alcotest.fail "outcome mismatch across refactor thresholds");
  Alcotest.(check bool) "refactorisations counted" true
    (Es_obs.Obs.value c_refactor > before)

(* --- LU reconstruction property -------------------------------------- *)

(* The m×m matrix with the given (row, value) columns, as the
   structural columns of an all-equality problem. *)
let sparse_of_cols m cols =
  let rows =
    List.init m (fun r ->
        let nonzeros =
          List.concat
            (List.mapi
               (fun k col -> List.filter_map (fun (i, v) -> if i = r then Some (k, v) else None) col)
               (Array.to_list cols))
        in
        { Sparse.nonzeros; relation = Sparse.Eq; rhs = 0. })
  in
  Sparse.of_sparse_rows ~obj:(Array.make (Array.length cols) 0.) rows

(* [basis]'s factors over [sp]'s columns, no artificial among them. *)
let factor sp basis =
  let lu = Lu.create sp ~art_sign:[||] in
  Lu.refactor lu basis;
  lu

(* After k product-form updates, the factorisation must still solve
   against the *current* basis matrix: B·ftran(b) ≈ b and
   Bᵀ·btran-consistency (column · y = c), both to rtol 1e-10 — the
   L·U ≈ B reconstruction check, phrased through the solves the
   simplex actually uses. *)
let qcheck_lu_reconstruction =
  QCheck.Test.make ~name:"lu: reconstruction after k eta updates" ~count:100
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Es_util.Rng.create ~seed:(seed + 11) in
      let m = 3 + Es_util.Rng.int rng 18 in
      (* diagonally dominant random sparse columns: nonsingular.  Rows
         are unique within a column, like any real CSC column. *)
      let random_col k =
        let seen = Array.make m false in
        seen.(k) <- true;
        let entries = ref [ (k, 2. +. Es_util.Rng.uniform_in rng 0. 2.) ] in
        for _ = 1 to Es_util.Rng.int rng 3 do
          let r = Es_util.Rng.int rng m in
          if not seen.(r) then begin
            seen.(r) <- true;
            entries := (r, Es_util.Rng.uniform_in rng (-0.5) 0.5) :: !entries
          end
        done;
        List.sort (fun (a, _) (b, _) -> Int.compare a b) !entries
      in
      let cols = Array.init m random_col in
      let lu = factor (sparse_of_cols m cols) (Array.init m Fun.id) in
      (* k eta updates, each replacing a random position with a fresh
         column; keep the shadow matrix in sync *)
      let k_updates = 1 + Es_util.Rng.int rng 20 in
      for _ = 1 to k_updates do
        let pos = Es_util.Rng.int rng m in
        let fresh = random_col pos in
        let a = Array.make m 0. in
        List.iter (fun (r, v) -> a.(r) <- v) fresh;
        let w = Array.make m 0. in
        Lu.ftran lu a w;
        match Lu.update lu ~pos ~w with
        | () -> cols.(pos) <- fresh
        | exception Lu.Unstable -> () (* skip the swap, keep B in sync *)
      done;
      let mat_vec x =
        let out = Array.make m 0. in
        Array.iteri
          (fun k col -> List.iter (fun (r, v) -> out.(r) <- out.(r) +. (v *. x.(k))) col)
          cols;
        out
      in
      let b = Array.init m (fun _ -> Es_util.Rng.uniform_in rng (-3.) 3.) in
      let x = Array.make m 0. in
      Lu.ftran lu (Array.copy b) x;
      let recon = mat_vec x in
      let scale =
        Array.fold_left (fun acc v -> Float.max acc (Float.abs v)) 1. b
      in
      let ftran_ok =
        Array.for_all2
          (fun a b -> Float.abs (a -. b) <= 1e-10 *. scale)
          recon b
      in
      (* Bᵀ y = c  ⇔  (column k) · y = c_k for every k *)
      let c = Array.init m (fun _ -> Es_util.Rng.uniform_in rng (-3.) 3.) in
      let y = Array.make m 0. in
      Lu.btran lu (Array.copy c) y;
      let cscale =
        Array.fold_left (fun acc v -> Float.max acc (Float.abs v)) 1. c
      in
      let btran_ok =
        Array.for_all (fun k ->
            let dot =
              List.fold_left (fun acc (r, v) -> acc +. (v *. y.(r))) 0. cols.(k)
            in
            Float.abs (dot -. c.(k)) <= 1e-10 *. cscale)
          (Array.init m Fun.id)
      in
      ftran_ok && btran_ok)

let test_lu_singular_detected () =
  (* two identical columns: factor must raise Singular *)
  let cols = [| [ (0, 1.); (1, 1.) ]; [ (0, 1.); (1, 1.) ] |] in
  match factor (sparse_of_cols 2 cols) [| 0; 1 |] with
  | _ -> Alcotest.fail "expected Singular"
  | exception Lu.Singular -> ()

(* [Lu.refactor] refills the L and U pools in place.  Whatever an
   earlier factorisation left in them, and a refactorisation that
   raised [Singular] half-way, the solves must equal those of a
   factorisation into fresh buffers of the same basis, bit for bit. *)
let test_lu_refactor_reuses_pools () =
  let m = 12 in
  let rng = Es_util.Rng.create ~seed:5 in
  (* columns 0..m−1 are the identity (no L or U entries); m..2m−1 are
     full, diagonally dominant columns, whose factors grow both pools
     past their initial m entries; 2m repeats column m *)
  let full k =
    List.init m (fun r ->
        let v = if r = k then 4. +. Es_util.Rng.uniform_in rng 0. 1. else Es_util.Rng.uniform_in rng (-0.5) 0.5 in
        (r, v))
  in
  let cols = Array.init (2 * m) (fun c -> if c < m then [ (c, 1.) ] else full (c - m)) in
  let cols = Array.append cols [| cols.(m) |] in
  let sp = sparse_of_cols m cols in
  let identity = Array.init m Fun.id and dense = Array.init m (fun k -> m + k) in
  let singular = Array.init m (fun k -> if k = m - 1 then 2 * m else m + k) in
  let solves lu =
    let rhs = Array.init m (fun i -> float_of_int (i + 1)) in
    let x = Array.make m 0. and y = Array.make m 0. in
    Lu.ftran lu (Array.copy rhs) x;
    Lu.btran lu (Array.copy rhs) y;
    Array.map Int64.bits_of_float (Array.append x y)
  in
  let fresh basis = solves (factor sp basis) in
  let lu = factor sp identity in
  Lu.refactor lu dense;
  Alcotest.(check (array int64)) "grown from the identity" (fresh dense) (solves lu);
  (match Lu.refactor lu singular with
  | () -> Alcotest.fail "expected Singular"
  | exception Lu.Singular -> ());
  Lu.refactor lu identity;
  Alcotest.(check (array int64)) "after Singular" (fresh identity) (solves lu);
  Lu.refactor lu dense;
  Alcotest.(check (array int64)) "refilled" (fresh dense) (solves lu)

let test_warm_stale_basis_falls_back () =
  (* a basis from one LP handed to a structurally different LP must
     degrade to a cold solve, not crash or mis-certify *)
  let obj = [| 1.; 1. |] in
  let rows1 = [ constr [| 1.; 2. |] Sparse.Ge 4.; constr [| 3.; 1. |] Sparse.Ge 6. ] in
  let sp1 = Sparse.of_rows ~obj rows1 in
  match Revised.solve sp1 with
  | _, None -> Alcotest.fail "expected a basis"
  | _, Some basis ->
    let rows2 =
      [
        constr [| 1.; 1. |] Sparse.Le 4.;
        constr [| 0.; 1. |] Sparse.Le 3.;
        constr [| 1.; 0. |] Sparse.Le 3.;
      ]
    in
    let sp2 = Sparse.of_rows ~obj:[| -1.; -2. |] rows2 in
    (match Revised.solve_from basis sp2 with
    | Revised.Optimal { objective; _ }, Some _ -> check_float "objective" (-7.) objective
    | _ -> Alcotest.fail "expected optimal via fallback")

let revised_cases =
  [
    QCheck_alcotest.to_alcotest qcheck_differential_random;
    QCheck_alcotest.to_alcotest qcheck_differential_warm_random;
    QCheck_alcotest.to_alcotest qcheck_differential_vdd;
    QCheck_alcotest.to_alcotest qcheck_resolve_chain;
    Alcotest.test_case "beale terminates (dantzig+fallback)" `Quick test_beale_terminates;
    Alcotest.test_case "beale under pure bland" `Quick test_beale_pure_bland;
    Alcotest.test_case "duplicate-row rhs ties" `Quick test_duplicate_row_ties;
    Alcotest.test_case "refactorisation threshold" `Quick test_refactor_threshold;
    QCheck_alcotest.to_alcotest qcheck_lu_reconstruction;
    Alcotest.test_case "lu singular detected" `Quick test_lu_singular_detected;
    Alcotest.test_case "lu refactor reuses its pools" `Quick test_lu_refactor_reuses_pools;
    Alcotest.test_case "stale warm basis falls back" `Quick test_warm_stale_basis_falls_back;
  ]

let suite = (fst suite, snd suite @ revised_cases)

(* --- the built statement ----------------------------------------------- *)

(* [Problem.to_sparse] must build exactly the CSC form that
   [Sparse.of_rows] builds from the dense [Problem.constraints]: same
   shape, same senses, same rhs and objective bits, same column
   entries in the same order.  Coefficients come from a small pool
   whose partial sums depend on the order they are added in
   (0.1 + 0.2 − 0.3 ≠ 0), and rows repeat variables, cancel term pairs
   to zero, carry explicit zeros or no terms at all. *)
let bits = Int64.bits_of_float

let same_statement a b =
  let rows = List.init (Sparse.m a) Fun.id in
  let column sp j =
    let ptr = Sparse.col_ptr sp in
    List.init (ptr.(j + 1) - ptr.(j)) (fun e ->
        let k = ptr.(j) + e in
        ((Sparse.row_idx sp).(k), bits (Sparse.col_val sp).(k)))
  in
  Sparse.m a = Sparse.m b
  && Sparse.n_struct a = Sparse.n_struct b
  && Sparse.n_cols a = Sparse.n_cols b
  && Sparse.nnz a = Sparse.nnz b
  && List.for_all (fun i -> Sparse.slack_col a i = Sparse.slack_col b i) rows
  && List.for_all (fun i -> Sparse.row_relation a i = Sparse.row_relation b i) rows
  && Array.for_all2 (fun x y -> Int64.equal (bits x) (bits y)) (Sparse.rhs a) (Sparse.rhs b)
  && List.for_all
       (fun j ->
         Int64.equal (bits (Sparse.obj a j)) (bits (Sparse.obj b j))
         && column a j = column b j)
       (List.init (Sparse.n_cols a) Fun.id)

let random_problem rng =
  let pick arr = arr.(Es_util.Rng.int rng (Array.length arr)) in
  let coeff () = pick [| 0.1; 0.2; -0.3; 1.; -1.; 0.; 2.5; -0.7 |] in
  let lp = Problem.create () in
  let n = 1 + Es_util.Rng.int rng 5 in
  let vars = Array.init n (fun _ -> Problem.var lp ~obj:(coeff ()) ()) in
  for _ = 1 to Es_util.Rng.int rng 7 do
    let terms =
      List.concat
        (List.init (Es_util.Rng.int rng 6) (fun _ ->
             let v = pick vars in
             match Es_util.Rng.int rng 4 with
             | 0 ->
               let c = coeff () in
               [ (c, v); (-.c, v) ] (* cancels to zero *)
             | 1 -> [ (0., v) ]
             | _ -> [ (coeff (), v) ]))
    in
    let rhs = Es_util.Rng.uniform_in rng (-2.) 4. in
    match Es_util.Rng.int rng 3 with
    | 0 -> Problem.le lp terms rhs
    | 1 -> Problem.ge lp terms rhs
    | _ -> Problem.eq lp terms rhs
  done;
  (* variables no row mentions: empty structural columns *)
  for _ = 1 to Es_util.Rng.int rng 2 do
    ignore (Problem.var lp ~obj:(coeff ()) ())
  done;
  lp

let qcheck_to_sparse_matches_dense =
  QCheck.Test.make ~name:"problem: to_sparse = of_rows of the dense statement" ~count:400
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let lp = random_problem (Es_util.Rng.create ~seed) in
      same_statement (Problem.to_sparse lp)
        (Sparse.of_rows ~obj:(Problem.objective_coeffs lp) (Problem.constraints lp)))

(* A 1000-row × 1500-variable LP whose all-slack basis is already
   optimal (≤ rows with rhs ≥ 0, costs ≥ 0): solving it must not
   allocate anything near the m·n dense rows a densifying build
   would.  A minor collection before each reading of the allocation
   counter makes it count the minor heap's words too. *)
let test_solve_allocates_no_dense_rows () =
  let m = 1000 and n = 1500 in
  let lp = Problem.create () in
  let vars = Array.init n (fun j -> Problem.var lp ~obj:(float_of_int (j mod 3)) ()) in
  for i = 0 to m - 1 do
    let terms =
      List.init (1 + (i mod 4)) (fun k -> (1. +. float_of_int k, vars.(((i * 7) + (k * 389)) mod n)))
    in
    Problem.le lp terms (float_of_int (i mod 5))
  done;
  Gc.minor ();
  let before = Gc.allocated_bytes () in
  let outcome = Problem.solve lp in
  Gc.minor ();
  let allocated = Gc.allocated_bytes () -. before in
  (match outcome with
  | Problem.Solution s -> check_float "objective" 0. (Problem.objective s)
  | Problem.Infeasible | Problem.Unbounded -> Alcotest.fail "expected a solution");
  let dense = float_of_int (m * n * 8) in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f MB allocated < half of the %.1f MB dense rows" (allocated /. 1e6)
       (dense /. 1e6))
    true
    (allocated < 0.5 *. dense)

let statement_cases =
  [
    QCheck_alcotest.to_alcotest qcheck_to_sparse_matches_dense;
    Alcotest.test_case "solve allocates no dense rows" `Quick test_solve_allocates_no_dense_rows;
  ]

let suite = (fst suite, snd suite @ statement_cases)
