type solution = Heuristics.solution

let candidates ~rel dag =
  let frel_floor = Float.max rel.Rel.fmin rel.Rel.frel in
  Array.init (Dag.n dag) (fun i ->
      let w = Dag.weight dag i in
      match Rel.min_reexec_speed rel ~w with
      | None -> false
      | Some flo ->
        let flo = Float.max flo rel.Rel.fmin in
        (* with unlimited time, re-execution pays iff 2·f_lo² < f_rel² *)
        2. *. flo *. flo < frel_floor *. frel_floor)

let max_n = 12

let solve ~rel ~deadline mapping =
  let cand = candidates ~rel (Mapping.dag mapping) in
  let k = Array.fold_left (fun k c -> if c then k + 1 else k) 0 cand in
  if k > max_n then
    invalid_arg (Printf.sprintf "Tricrit_exact.solve: %d candidates > %d" k max_n);
  Subset_search.exhaustive ~menu:[| false; true |] ~vary:cand
    ~bound:(fun _ _ -> neg_infinity)
    ~evaluate:(fun subset -> Heuristics.evaluate_subset ~rel ~deadline mapping ~subset)
    ~energy:(fun (s : solution) -> s.energy)
