(* Tests for the verification subsystem (lib/check): the certificate
   checkers accept genuine solver output and reject corrupted output,
   the brute-force oracles agree with the production solvers on pinned
   instances, random raw LPs always carry valid certificates, and the
   fuzz runner shrinks deterministically. *)

module Sparse = Es_lp.Sparse
module Revised = Es_lp.Revised
module Lp_cert = Es_check.Lp_cert
module Kkt = Es_check.Kkt
module Brute = Es_check.Brute
module CGen = Es_check.Gen
module Relation = Es_check.Relation
module Runner = Es_check.Runner

let levels = [| 0.2; 0.6; 1.0 |]

(* --- Lp_cert: certificates and corruption --------------------------- *)

(* min x + 2y  s.t.  x + y >= 1,  y <= 5:  optimum x=1, y=0, E=1 *)
let tiny_obj = [| 1.; 2. |]

let tiny_rows =
  [
    { Sparse.coeffs = [| 1.; 1. |]; relation = Sparse.Ge; rhs = 1. };
    { Sparse.coeffs = [| 0.; 1. |]; relation = Sparse.Le; rhs = 5. };
  ]

let solved_tiny () =
  match fst (Revised.solve (Sparse.of_rows ~obj:tiny_obj tiny_rows)) with
  | Revised.Optimal { objective; solution; duals } -> (objective, solution, duals)
  | Revised.Infeasible | Revised.Unbounded -> Alcotest.fail "tiny LP must be optimal"

let is_certified = function Lp_cert.Certified _ -> true | Lp_cert.Rejected _ -> false

let test_cert_accepts_simplex () =
  let objective, solution, duals = solved_tiny () in
  Alcotest.(check bool) "genuine optimum certified" true
    (is_certified
       (Lp_cert.certify ~obj:tiny_obj ~constraints:tiny_rows ~objective ~solution ~duals))

let test_cert_rejects_corrupted_objective () =
  (* the acceptance criterion: +1% on the reported energy must fail *)
  let objective, solution, duals = solved_tiny () in
  Alcotest.(check bool) "objective +1% rejected" false
    (is_certified
       (Lp_cert.certify ~obj:tiny_obj ~constraints:tiny_rows ~objective:(1.01 *. objective)
          ~solution ~duals))

let test_cert_rejects_corrupted_solution () =
  let objective, solution, duals = solved_tiny () in
  let solution = Array.copy solution in
  solution.(1) <- solution.(1) +. 0.05;
  Alcotest.(check bool) "perturbed primal rejected" false
    (is_certified
       (Lp_cert.certify ~obj:tiny_obj ~constraints:tiny_rows ~objective ~solution ~duals))

let test_cert_rejects_corrupted_duals () =
  let objective, solution, duals = solved_tiny () in
  let duals = Array.map (fun y -> -.y) duals in
  Alcotest.(check bool) "sign-flipped duals rejected" false
    (is_certified
       (Lp_cert.certify ~obj:tiny_obj ~constraints:tiny_rows ~objective ~solution ~duals))

let test_cert_vdd_problem () =
  (* end-to-end on the real VDD LP, plus the +1% corruption *)
  let rng = Es_util.Rng.create ~seed:11 in
  let dag = Generators.random_layered rng ~layers:3 ~width:2 ~density:0.5 ~wlo:1. ~whi:3. in
  let mapping = List_sched.schedule dag ~p:2 ~priority:List_sched.Bottom_level in
  let deadline = 1.4 *. List_sched.makespan_at_speed mapping ~f:1. in
  let lp = Bicrit_vdd.lp ~deadline ~levels mapping in
  match Es_lp.Problem.solve lp with
  | Es_lp.Problem.Infeasible | Es_lp.Problem.Unbounded -> Alcotest.fail "feasible by construction"
  | Es_lp.Problem.Solution s ->
    Alcotest.(check bool) "vdd optimum certified" true
      (is_certified (Lp_cert.certify_problem lp s));
    let corrupted =
      Lp_cert.certify
        ~obj:(Es_lp.Problem.objective_coeffs lp)
        ~constraints:(Es_lp.Problem.constraints lp)
        ~objective:(1.01 *. Es_lp.Problem.objective s)
        ~solution:(Es_lp.Problem.values s) ~duals:(Es_lp.Problem.duals s)
    in
    Alcotest.(check bool) "vdd energy +1% rejected" false (is_certified corrupted)

(* Random raw LPs with mixed <=/>=/= rows, negative rhs and mixed-sign
   coefficients: harsher on the dual-sign bookkeeping than the
   structured VDD LPs.  Every Optimal claim must carry a valid
   primal-dual certificate. *)
let qcheck_random_lp_certificates =
  let open QCheck2 in
  let gen =
    Gen.(
      int_range 1 4 >>= fun nv ->
      int_range 1 4 >>= fun nc ->
      list_size (return nc)
        (triple
           (array_size (return nv) (float_range (-2.) 2.))
           (oneofl [ Sparse.Le; Sparse.Ge; Sparse.Eq ])
           (float_range (-2.) 2.))
      >>= fun rows ->
      (* non-negative objective keeps a decent fraction bounded *)
      array_size (return nv) (float_range 0. 2.) >|= fun obj -> (obj, rows))
  in
  Test.make ~name:"random LPs: every simplex optimum is certified" ~count:500 gen
    (fun (obj, rows) ->
      let constraints =
        List.map (fun (coeffs, relation, rhs) -> { Sparse.coeffs; relation; rhs }) rows
      in
      match fst (Revised.solve (Sparse.of_rows ~obj constraints)) with
      | exception Failure _ -> true (* pivot limit: no claim to check *)
      | Revised.Infeasible | Revised.Unbounded -> true
      | Revised.Optimal _ as o -> (
        match Lp_cert.certify_outcome ~obj ~constraints o with
        | Some (Lp_cert.Certified _) -> true
        | Some (Lp_cert.Rejected _ as v) -> Test.fail_report (Lp_cert.describe v)
        | None -> false))

(* --- Kkt: optimality oracles and corruption ------------------------- *)

let test_kkt_chain_certified () =
  let weights = [| 1.; 2.; 1.5 |] and deadline = 12. in
  match Bicrit_continuous.chain ~weights ~deadline ~fmin:0.2 ~fmax:1. with
  | None -> Alcotest.fail "feasible"
  | Some r ->
    Alcotest.(check bool) "closed form passes" true
      (Kkt.is_ok (Kkt.check_chain ~weights ~deadline ~fmin:0.2 ~fmax:1. r));
    let corrupt = { r with Bicrit_continuous.energy = 1.01 *. r.Bicrit_continuous.energy } in
    Alcotest.(check bool) "energy +1% caught" false
      (Kkt.is_ok (Kkt.check_chain ~weights ~deadline ~fmin:0.2 ~fmax:1. corrupt))

let test_kkt_rejects_uncommon_speeds () =
  (* feasible but suboptimal: distinct speeds above the floor *)
  let v =
    Kkt.check_waterfill ~eff_weights:[| 1.; 1. |] ~floors:[| 0.; 0. |] ~fmax:10. ~deadline:4.
      ~speeds:[| 1.; 1. /. 3. |]
  in
  Alcotest.(check bool) "uncommon speeds rejected" false (Kkt.is_ok v);
  let ok =
    Kkt.check_waterfill ~eff_weights:[| 1.; 1. |] ~floors:[| 0.; 0. |] ~fmax:10. ~deadline:4.
      ~speeds:[| 0.5; 0.5 |]
  in
  Alcotest.(check bool) "true waterfill accepted" true (Kkt.is_ok ok)

let test_kkt_general_certified_and_corrupted () =
  let rng = Es_util.Rng.create ~seed:21 in
  let dag = Generators.random_layered rng ~layers:3 ~width:3 ~density:0.5 ~wlo:1. ~whi:3. in
  let mapping = List_sched.schedule dag ~p:2 ~priority:List_sched.Bottom_level in
  let n = Dag.n dag in
  let lo = Array.make n 0.2 and hi = Array.make n 1. in
  let deadline = 1.5 *. List_sched.makespan_at_speed mapping ~f:1. in
  match Bicrit_continuous.solve_general ~lo ~hi ~deadline mapping with
  | None -> Alcotest.fail "feasible by construction"
  | Some r ->
    Alcotest.(check bool) "barrier optimum passes KKT" true
      (Kkt.is_ok (Kkt.check_general ~deadline ~lo ~hi mapping r));
    let speeds = Array.copy r.Bicrit_continuous.speeds in
    speeds.(0) <- Float.min hi.(0) (speeds.(0) *. 1.1);
    let corrupt = { r with Bicrit_continuous.speeds = speeds } in
    Alcotest.(check bool) "perturbed speeds caught" false
      (Kkt.is_ok (Kkt.check_general ~deadline ~lo ~hi mapping corrupt))

(* --- Brute: hull geometry and exhaustive enumeration ----------------- *)

let test_hull_vertices () =
  (* u ↦ 1/u² is strictly convex, so every level is a hull vertex *)
  let h = Brute.hull ~levels in
  Alcotest.(check int) "all levels on the hull" (Array.length levels) (Array.length h);
  let u0, e0 = h.(0) in
  Alcotest.(check (float 1e-12)) "first vertex is fmax" 1. u0;
  Alcotest.(check (float 1e-12)) "fmax energy density" 1. e0

let test_hull_single_task_mix () =
  (* the analytic two-level mix from test_vdd, via the hull oracle *)
  match Brute.vdd_chain_optimum ~levels:[| 0.5; 1.0 |] ~weights:[| 1. |] ~deadline:1.5 with
  | None -> Alcotest.fail "feasible"
  | Some e -> Alcotest.(check (float 1e-9)) "analytic mix" 0.625 e

let test_hull_infeasible () =
  Alcotest.(check bool) "too tight for fmax" true
    (Brute.vdd_chain_optimum ~levels ~weights:[| 4. |] ~deadline:3.9 = None)

let test_brute_matches_branch_and_bound () =
  let rng = Es_util.Rng.create ~seed:31 in
  let dag = Generators.random_dag rng ~n:4 ~p:0.4 ~wlo:0.5 ~whi:2. in
  let mapping = List_sched.schedule dag ~p:2 ~priority:List_sched.Bottom_level in
  let deadline = 1.3 *. List_sched.makespan_at_speed mapping ~f:1. in
  match
    ( Bicrit_discrete.solve_exact ~deadline ~levels mapping,
      Brute.discrete_optimum ~levels ~deadline mapping )
  with
  | Some e, Some b ->
    Alcotest.(check (float 1e-9)) "B&B equals enumeration" b e.Bicrit_discrete.energy
  | _ -> Alcotest.fail "feasible by construction"

(* --- Gen / Runner: determinism and shrinking ------------------------- *)

let test_generate_deterministic () =
  let inst seed = CGen.generate (Es_util.Rng.create ~seed) in
  Alcotest.(check string) "same seed, same instance" (CGen.describe (inst 99))
    (CGen.describe (inst 99));
  Alcotest.(check bool) "different seed, different instance" false
    (String.equal (CGen.describe (inst 99)) (CGen.describe (inst 100)))

let test_shrinker_reaches_minimum () =
  (* a synthetic relation failing iff n >= 3 must shrink to exactly 3 *)
  let synthetic =
    {
      Relation.name = "synthetic";
      descr = "fails on any instance with at least 3 tasks";
      shapes = CGen.all_shapes;
      run =
        (fun t ->
          if Array.length t.CGen.weights >= 3 then Relation.Fail "n >= 3" else Relation.Pass);
    }
  in
  let rng = Es_util.Rng.create ~seed:5 in
  let rec failing_instance () =
    let i = CGen.generate rng in
    if Array.length i.CGen.weights >= 5 then i else failing_instance ()
  in
  let shrunk, steps = Runner.shrink_to_minimal synthetic (failing_instance ()) in
  Alcotest.(check int) "minimal size reached" 3 (Array.length shrunk.CGen.weights);
  Alcotest.(check bool) "took at least one step" true (steps > 0)

let test_runner_seeded_fuzz () =
  (* the whole relation catalogue on a small seeded run, inside the
     tier-1 suite: any regression that breaks a solver invariant fails
     here even before CI's bigger escheck run *)
  let report = Runner.run ~seed:7 ~trials:20 Relation.all in
  let failures =
    List.concat_map (fun s -> s.Runner.failures) report.Runner.summaries
  in
  (match failures with
  | [] -> ()
  | f :: _ ->
    Alcotest.fail
      (Printf.sprintf "relation %s failed (%s); reproduce: %s" f.Runner.relation
         f.Runner.message (Runner.repro f)));
  Alcotest.(check bool) "report ok" true (Runner.ok report)

let test_runner_render_deterministic () =
  let r () = Runner.render (Runner.run ~seed:3 ~trials:5 Relation.all) in
  Alcotest.(check string) "two identical runs render identically" (r ()) (r ())

let test_relation_registry () =
  let names = Relation.names () in
  Alcotest.(check int) "no duplicate names" (List.length names)
    (List.length (List.sort_uniq String.compare names));
  Alcotest.(check bool) "at least 6 relations" true (List.length names >= 6);
  Alcotest.(check bool) "find hit" true (Option.is_some (Relation.find "lp-cert"));
  Alcotest.(check bool) "find miss" true (Option.is_none (Relation.find "no-such"))

let test_report_json () =
  let first = match Relation.all with r :: _ -> [ r ] | [] -> [] in
  let report = Runner.run ~seed:13 ~trials:3 first in
  let json = Runner.to_json report in
  match Es_obs.Obs_json.member "ok" json with
  | Some (Es_obs.Obs_json.Bool b) -> Alcotest.(check bool) "json ok flag" true b
  | _ -> Alcotest.fail "report JSON lacks an ok flag"

let suite =
  ( "check",
    [
      Alcotest.test_case "lp-cert accepts genuine optimum" `Quick test_cert_accepts_simplex;
      Alcotest.test_case "lp-cert rejects +1% objective" `Quick
        test_cert_rejects_corrupted_objective;
      Alcotest.test_case "lp-cert rejects perturbed primal" `Quick
        test_cert_rejects_corrupted_solution;
      Alcotest.test_case "lp-cert rejects flipped duals" `Quick
        test_cert_rejects_corrupted_duals;
      Alcotest.test_case "lp-cert certifies the vdd LP" `Quick test_cert_vdd_problem;
      QCheck_alcotest.to_alcotest qcheck_random_lp_certificates;
      Alcotest.test_case "kkt chain certificate and corruption" `Quick
        test_kkt_chain_certified;
      Alcotest.test_case "kkt rejects uncommon speeds" `Quick test_kkt_rejects_uncommon_speeds;
      Alcotest.test_case "kkt general certificate and corruption" `Quick
        test_kkt_general_certified_and_corrupted;
      Alcotest.test_case "hull keeps all convex vertices" `Quick test_hull_vertices;
      Alcotest.test_case "hull analytic two-level mix" `Quick test_hull_single_task_mix;
      Alcotest.test_case "hull detects infeasibility" `Quick test_hull_infeasible;
      Alcotest.test_case "enumeration matches branch-and-bound" `Quick
        test_brute_matches_branch_and_bound;
      Alcotest.test_case "instance generation is seeded" `Quick test_generate_deterministic;
      Alcotest.test_case "shrinker reaches the minimum" `Quick test_shrinker_reaches_minimum;
      Alcotest.test_case "seeded fuzz over all relations" `Slow test_runner_seeded_fuzz;
      Alcotest.test_case "render is deterministic" `Quick test_runner_render_deterministic;
      Alcotest.test_case "relation registry" `Quick test_relation_registry;
      Alcotest.test_case "json report" `Quick test_report_json;
    ] )
