type solution = Heuristics.solution

(* with unlimited time, re-execution pays iff its knapsack item saves
   energy: 2·f_lo² < f_rel² *)
let candidates ~rel dag =
  Array.init (Dag.n dag) (fun i ->
      match Rel.knapsack_item rel ~w:(Dag.weight dag i) with
      | None -> false
      | Some k -> k.saving > 0.)

let max_n = 12

let solve ~rel ~deadline mapping =
  let cand = candidates ~rel (Mapping.dag mapping) in
  let k = Array.fold_left (fun k c -> if c then k + 1 else k) 0 cand in
  if k > max_n then
    invalid_arg (Printf.sprintf "Tricrit_exact.solve: %d candidates > %d" k max_n);
  Subset_search.exhaustive ~menu:[| false; true |] ~vary:cand
    ~evaluate:(fun subset -> Heuristics.evaluate_subset ~rel ~deadline mapping ~subset)
    ~energy:(fun (s : solution) -> s.energy)
