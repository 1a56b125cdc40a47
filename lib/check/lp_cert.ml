module Sparse = Es_lp.Sparse
module Revised = Es_lp.Revised
module Problem = Es_lp.Problem

type report = {
  primal_infeasibility : float;
  dual_infeasibility : float;
  complementary_slackness : float;
  duality_gap : float;
  objective_mismatch : float;
}

type verdict = Certified of report | Rejected of report * string

let dot a b =
  let acc = ref 0. in
  Array.iteri (fun i ai -> acc := !acc +. (ai *. b.(i))) a;
  !acc

(* Residuals are reported relative to the magnitude of the data they
   involve, so one tolerance works across instances of any scale. *)
let scale_of ~obj ~rows ~solution ~duals =
  let m = ref 1. in
  let see v = if Float.abs v > !m then m := Float.abs v in
  Array.iter see obj;
  List.iter
    (fun (r : Sparse.constr) ->
      see r.rhs;
      Array.iter see r.coeffs)
    rows;
  Array.iter see solution;
  Array.iter see duals;
  !m

let tol = 1e-6

let certify ~obj ~constraints ~objective ~solution ~duals =
  let rows = constraints in
  let m = List.length rows in
  let n = Array.length obj in
  if Array.length solution <> n || Array.length duals <> m then
    Rejected
      ( {
          primal_infeasibility = infinity;
          dual_infeasibility = infinity;
          complementary_slackness = infinity;
          duality_gap = infinity;
          objective_mismatch = infinity;
        },
        "dimension mismatch between problem and certificate" )
  else begin
    let s = scale_of ~obj ~rows ~solution ~duals in
    let primal = ref 0. and dual = ref 0. and cs = ref 0. in
    (* primal: x >= 0 *)
    Array.iter (fun x -> if -.x > !primal then primal := -.x) solution;
    (* rows: feasibility, dual signs, y_i * slack_i *)
    List.iteri
      (fun i (r : Sparse.constr) ->
        let ax = dot r.coeffs solution in
        let slack = r.rhs -. ax in
        let viol =
          match r.relation with
          | Sparse.Le -> -.slack (* ax <= b *)
          | Sparse.Ge -> slack (* ax >= b *)
          | Sparse.Eq -> Float.abs slack
        in
        if viol > !primal then primal := viol;
        let y = duals.(i) in
        let sign_viol =
          match r.relation with
          | Sparse.Le -> y (* shadow price of a <= row: y <= 0 *)
          | Sparse.Ge -> -.y (* >= row: y >= 0 *)
          | Sparse.Eq -> 0. (* free *)
        in
        if sign_viol > !dual then dual := sign_viol;
        let c = Float.abs (y *. slack) in
        if c > !cs then cs := c)
      rows;
    (* reduced costs r_j = c_j - sum_i y_i a_ij >= 0, and x_j r_j = 0 *)
    let red = Array.copy obj in
    List.iteri
      (fun i (r : Sparse.constr) ->
        let y = duals.(i) in
        if y <> 0. then
          Array.iteri (fun j a -> red.(j) <- red.(j) -. (y *. a)) r.coeffs)
      rows;
    Array.iteri
      (fun j rj ->
        if -.rj > !dual then dual := -.rj;
        let c = Float.abs (solution.(j) *. rj) in
        if c > !cs then cs := c)
      red;
    let cx = dot obj solution in
    let by =
      let acc = ref 0. in
      List.iteri (fun i (r : Sparse.constr) -> acc := !acc +. (r.rhs *. duals.(i))) rows;
      !acc
    in
    let report =
      {
        primal_infeasibility = !primal /. s;
        dual_infeasibility = !dual /. s;
        complementary_slackness = !cs /. (s *. s);
        duality_gap = Float.abs (cx -. by) /. Float.max 1. (Float.abs cx);
        objective_mismatch = Float.abs (cx -. objective) /. Float.max 1. (Float.abs cx);
      }
    in
    let fail reason = Rejected (report, reason) in
    if report.primal_infeasibility > tol then fail "primal infeasibility"
    else if report.dual_infeasibility > tol then
      fail "dual infeasibility (reduced cost or shadow-price sign)"
    else if report.complementary_slackness > tol then fail "complementary slackness"
    else if report.duality_gap > tol then fail "primal-dual objective gap"
    else if report.objective_mismatch > tol then
      fail "reported objective does not match c'x"
    else Certified report
  end

let certify_outcome ~obj ~constraints = function
  | Revised.Optimal { objective; solution; duals } ->
    Some (certify ~obj ~constraints ~objective ~solution ~duals)
  | Revised.Infeasible | Revised.Unbounded -> None

let certify_problem lp solution =
  certify ~obj:(Problem.objective_coeffs lp) ~constraints:(Problem.constraints lp)
    ~objective:(Problem.objective solution) ~solution:(Problem.values solution)
    ~duals:(Problem.duals solution)

let describe = function
  | Certified r -> Printf.sprintf "certified (gap %.2e)" r.duality_gap
  | Rejected (r, reason) ->
    Printf.sprintf
      "REJECTED: %s (primal %.2e, dual %.2e, comp-slack %.2e, gap %.2e, obj %.2e)"
      reason r.primal_infeasibility r.dual_infeasibility r.complementary_slackness
      r.duality_gap r.objective_mismatch
