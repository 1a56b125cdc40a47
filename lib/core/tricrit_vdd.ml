module Problem = Es_lp.Problem
module Obs = Es_obs.Obs

type solution = {
  schedule : Schedule.t;
  energy : float;
  reexecuted : bool array;
}

let c_subsets = Obs.counter "tricrit_vdd_subsets"
let c_bounds = Obs.counter "tricrit_vdd_bounds"
let c_bound_failures = Obs.counter "tricrit_vdd_bound_failures"

let solve_subset_split ~rel ~deadline ~levels mapping ~subset ~splits =
  Obs.incr c_subsets;
  let cdag = Mapping.constraint_dag mapping in
  let n = Dag.n cdag in
  assert (Array.length subset = n);
  assert (Array.length splits = n);
  (* per-execution budgets: θ / 1−θ exponents keep the product at the
     exact target for any split of a sub-1 target *)
  let budgets =
    Array.init n (fun i ->
        let target = Rel.target_failure rel ~w:(Dag.weight cdag i) in
        if subset.(i) then [| target ** splits.(i); target ** (1. -. splits.(i)) |]
        else [| target |])
  in
  (* even the fastest level must be able to meet every budget *)
  let top = levels.(Array.length levels - 1) in
  let beyond_top (i, budgets) =
    let eps = Rel.failure_prob rel ~f:top ~w:(Dag.weight cdag i) in
    Array.exists (fun budget -> eps > budget *. (1. +. 1e-9)) budgets
  in
  if Seq.exists beyond_top (Array.to_seqi budgets) then None
  else begin
    let rates = Array.map (fun f -> Rel.rate rel ~f) levels in
    let b =
      Bicrit_vdd.build ~deadline ~levels ~reliability:(Some { Bicrit_vdd.rates; budgets }) mapping
    in
    match Problem.solve (Bicrit_vdd.problem b) with
    | Problem.Infeasible -> None
    | Problem.Unbounded -> assert false
    | Problem.Solution s ->
      let schedule = Bicrit_vdd.schedule b s in
      Some { schedule; energy = Schedule.energy schedule; reexecuted = Array.copy subset }
  end

let solve_subset ~rel ~deadline ~levels mapping ~subset =
  let n = Array.length subset in
  solve_subset_split ~rel ~deadline ~levels mapping ~subset ~splits:(Array.make n 0.5)

let refine_splits ~rel ~deadline ~levels mapping solution =
  let subset = solution.reexecuted in
  let n = Array.length subset in
  let splits = Array.make n 0.5 in
  (* the subset LP with task i's split at θ, every other split as
     committed *)
  let solve_at i theta =
    let saved = splits.(i) in
    splits.(i) <- theta;
    let res = solve_subset_split ~rel ~deadline ~levels mapping ~subset ~splits in
    splits.(i) <- saved;
    res
  in
  let best = ref solution in
  for i = 0 to n - 1 do
    if subset.(i) then begin
      let cost theta = match solve_at i theta with Some s -> s.energy | None -> infinity in
      let theta = Es_numopt.Scalar.golden_min ~tol:1e-3 ~f:cost ~lo:0.15 ~hi:0.85 in
      (* the solve at the golden-section abscissa is the candidate *)
      match solve_at i theta with
      | Some s when s.energy < !best.energy -. 1e-12 ->
        splits.(i) <- theta;
        best := s
      | Some _ | None -> ()
    end
  done;
  !best

(* The search nodes of [solve_exact]: one LP relaxation per request,
   every task's choice open, re-solved at each node with the decided
   tasks' weights fixed — new right-hand sides only, so the dual
   simplex restarts from the optimal basis of the node's parent, as a
   deadline sweep chains its deadlines; the root, and a node whose
   parent has no basis, start from the crash basis.  An infeasible
   relaxation has no feasible completion.  A feasible one bounds its
   subtree and splits it on the open task whose weight is the most
   fractional, the side it rounds to first; with every open weight
   within [integral] of 0 or 1, the relaxation's optimum is a point of
   the rounded subset's LP, which is then the subtree's minimum (at a
   leaf, every weight is fixed and the relaxation is the leaf's own
   LP).  A relaxation whose solve raises bounds nothing: its node is
   the plain enumeration's. *)
let integral = 1e-9

let relaxation ~rel ~deadline ~levels mapping =
  let cdag = Mapping.constraint_dag mapping in
  let n = Dag.n cdag in
  let rates = Array.map (fun f -> Rel.rate rel ~f) levels in
  let budgets =
    Array.init n (fun i ->
        let target = Rel.target_failure rel ~w:(Dag.weight cdag i) in
        [| target; target ** 0.5; target ** 0.5 |])
  in
  let b = Bicrit_vdd.build ~deadline ~levels ~reliability:(Some { Bicrit_vdd.rates; budgets }) mapping in
  let sp = Problem.to_sparse (Bicrit_vdd.problem b) in
  let crash = Bicrit_vdd.crash b sp in
  (* bases.(d): the optimal basis of the node with d tasks decided on
     the current path *)
  let bases = Array.make (n + 1) None in
  fun partial ->
    Obs.incr c_bounds;
    let decided = Array.fold_left (fun d c -> if Option.is_some c then d + 1 else d) 0 partial in
    let node = Bicrit_vdd.with_choices b sp (Array.get partial) in
    let parent = if decided = 0 then None else bases.(decided - 1) in
    match Problem.solve_sparse ~basis:(Option.value parent ~default:crash) node with
    | Problem.Solution s, next ->
      bases.(decided) <- next;
      let bound = Bicrit_vdd.dual_bound b node s in
      (* the most fractional open weight, the lowest task on ties *)
      let at = ref (-1) and fraction = ref 0. in
      Array.iteri
        (fun i c ->
          if Option.is_none c then begin
            let l = Bicrit_vdd.choice_weight b s i in
            let f = Float.min l (1. -. l) in
            if !at < 0 || f > !fraction then begin
              at := i;
              fraction := f
            end
          end)
        partial;
      let rounded i = Bicrit_vdd.choice_weight b s i >= 0.5 in
      if !fraction <= integral then
        Subset_search.Attained
          { bound; vector = Array.mapi (fun i c -> match c with Some c -> c | None -> rounded i) partial }
      else Subset_search.Split { bound; at = !at; first = Bool.to_int (rounded !at) }
    | Problem.Infeasible, _ -> Subset_search.Infeasible
    | Problem.Unbounded, _ ->
      (* energy is bounded below by 0: cannot happen on well-formed input *)
      assert false
    | exception Failure _ ->
      Obs.incr c_bound_failures;
      bases.(decided) <- None;
      Subset_search.no_bound partial

let max_n = 12

let solve_exact ~rel ~deadline ~levels mapping =
  let n = Dag.n (Mapping.dag mapping) in
  if n > max_n then
    invalid_arg (Printf.sprintf "Tricrit_vdd.solve_exact: n = %d > %d" n max_n);
  Subset_search.branch_and_bound ~menu:[| false; true |] ~vary:(Array.make n true)
    ~node:(relaxation ~rel ~deadline ~levels mapping)
    ~evaluate:(fun subset -> solve_subset ~rel ~deadline ~levels mapping ~subset)
    ~energy:(fun s -> s.energy)

let solve_heuristic ~rel ~deadline ~levels mapping =
  let n = Dag.n (Mapping.dag mapping) in
  let subset =
    match Heuristics.best_of ~rel ~deadline mapping with
    | Some (sol, _) -> sol.Heuristics.reexecuted
    | None -> Array.make n false
  in
  match solve_subset ~rel ~deadline ~levels mapping ~subset with
  | Some sol -> Some sol
  | None ->
    (* the continuous subset may be too aggressive for the discrete
       level set: retreat to no re-execution *)
    solve_subset ~rel ~deadline ~levels mapping ~subset:(Array.make n false)
