type solution = {
  schedule : Schedule.t;
  energy : float;
  reexecuted : bool array;
}

(* KKT: fᵢ = κᵢ·f_c clamped into [floorᵢ, fmax], κᵢ = (timeᵢ/energyᵢ)^{1/3};
   f_c solves Σ timeᵢ/fᵢ = D.  κ = 1 for once and twice, so there all
   unclamped tasks share the level f_c. *)
let waterfill (choices : Rel.choice array) ~fmax ~deadline =
  let n = Array.length choices in
  let kappa = Array.map (fun (c : Rel.choice) -> Es_util.Futil.cbrt (c.time /. c.energy)) choices in
  let speed_at fc i = Float.min fmax (Float.max choices.(i).floor (kappa.(i) *. fc)) in
  let time_at fc =
    let acc = ref 0. in
    for i = 0 to n - 1 do
      acc := !acc +. (choices.(i).time /. speed_at fc i)
    done;
    !acc
  in
  if Array.exists (fun (c : Rel.choice) -> c.floor > fmax *. (1. +. 1e-12)) choices then None
  else begin
    let fc_hi = fmax /. Array.fold_left Float.min 1. kappa in
    if time_at fc_hi > deadline *. (1. +. 1e-9) then None
    else begin
      (* time_at is continuous and decreasing; [0, fc_hi] brackets the
         crossing *)
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

let c_subsets = Es_obs.Obs.counter "tricrit_chain_subsets"

let chain_tasks mapping =
  if Mapping.p mapping <> 1 then
    invalid_arg "Tricrit_chain: mapping must use a single processor";
  Array.of_list (Mapping.order mapping 0)

let evaluate_subset ~rel ~deadline mapping ~subset =
  Es_obs.Obs.incr c_subsets;
  let dag = Mapping.dag mapping in
  let tasks = chain_tasks mapping in
  assert (Array.length subset = Dag.n dag);
  let along a = Array.map (Array.get a) tasks in
  match
    Option.bind
      (Rel.choices rel ~weights:(along (Dag.weights dag)) ~subset:(along subset))
      (waterfill ~fmax:rel.Rel.fmax ~deadline)
  with
  | None -> None
  | Some at ->
    let speeds = Array.make (Dag.n dag) 0. in
    Array.iteri (fun pos i -> speeds.(i) <- at.(pos)) tasks;
    let schedule = Schedule.of_speeds ~reexecuted:subset mapping ~speeds in
    Some { schedule; energy = Schedule.energy schedule; reexecuted = Array.copy subset }

let no_reexecution ~rel ~deadline mapping =
  let subset = Array.make (Dag.n (Mapping.dag mapping)) false in
  evaluate_subset ~rel ~deadline mapping ~subset

let max_n = 20

let solve_exact ~rel ~deadline mapping =
  let n = Dag.n (Mapping.dag mapping) in
  if n > max_n then
    invalid_arg (Printf.sprintf "Tricrit_chain.solve_exact: n = %d > %d" n max_n);
  Subset_search.exhaustive ~menu:[| false; true |] ~vary:(Array.make n true)
    ~evaluate:(fun subset -> evaluate_subset ~rel ~deadline mapping ~subset)
    ~energy:(fun s -> s.energy)

(* When the deadline is too tight even for S = ∅ the instance is
   infeasible: adding re-executions only lengthens the chain. *)
let solve_greedy ~rel ~deadline mapping =
  let n = Dag.n (Mapping.dag mapping) in
  Subset_search.descent ~menu:[| false; true |] ~vary:(Array.make n true)
    ~evaluate:(fun subset -> evaluate_subset ~rel ~deadline mapping ~subset)
    ~energy:(fun s -> s.energy)
