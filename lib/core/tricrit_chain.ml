type solution = {
  schedule : Schedule.t;
  energy : float;
  reexecuted : bool array;
}

let waterfill ~eff_weights ~floors ~fmax ~deadline =
  let n = Array.length eff_weights in
  assert (Array.length floors = n);
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
    else begin
      (* time_at is continuous, strictly decreasing where active;
         bracket [0, fmax] contains the crossing. *)
      let fc =
        Es_numopt.Scalar.root_monotone ~tol:1e-14
          ~f:(fun fc -> time_at fc -. deadline)
          ~lo:0. ~hi:fmax
      in
      Some (speeds_of fc)
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
  let n = Array.length tasks in
  assert (Array.length subset = Dag.n dag);
  let exception Cannot in
  match
    Array.init n (fun pos ->
        let i = tasks.(pos) in
        let w = Dag.weight dag i in
        if subset.(i) then begin
          match Rel.min_reexec_speed rel ~w with
          | None -> raise Cannot
          | Some flo -> (2. *. w, Float.max rel.Rel.fmin flo)
        end
        else (w, Float.max rel.Rel.fmin rel.Rel.frel))
  with
  | exception Cannot -> None
  | profile ->
    let eff_weights = Array.map fst profile and floors = Array.map snd profile in
    (match waterfill ~eff_weights ~floors ~fmax:rel.Rel.fmax ~deadline with
    | None -> None
    | Some speeds ->
      let executions = Array.make (Dag.n dag) [] in
      Array.iteri
        (fun pos i ->
          let w = Dag.weight dag i in
          let f = speeds.(pos) in
          let part = { Schedule.speed = f; time = w /. f } in
          executions.(i) <- (if subset.(i) then [ [ part ]; [ part ] ] else [ [ part ] ]))
        tasks;
      let schedule = Schedule.make mapping ~executions in
      Some { schedule; energy = Schedule.energy schedule; reexecuted = Array.copy subset })

let no_reexecution ~rel ~deadline mapping =
  let subset = Array.make (Dag.n (Mapping.dag mapping)) false in
  evaluate_subset ~rel ~deadline mapping ~subset

let max_n = 20

let solve_exact ~rel ~deadline mapping =
  let n = Dag.n (Mapping.dag mapping) in
  if n > max_n then
    invalid_arg (Printf.sprintf "Tricrit_chain.solve_exact: n = %d > %d" n max_n);
  Subset_search.exhaustive ~menu:[| false; true |] ~vary:(Array.make n true)
    ~bound:(fun _ _ -> neg_infinity)
    ~evaluate:(fun subset -> evaluate_subset ~rel ~deadline mapping ~subset)
    ~energy:(fun s -> s.energy)

(* When the deadline is too tight even for S = ∅ the instance is
   infeasible: adding re-executions only lengthens the chain. *)
let solve_greedy ~rel ~deadline mapping =
  let n = Dag.n (Mapping.dag mapping) in
  Subset_search.descent ~menu:[| false; true |] ~vary:(Array.make n true)
    ~evaluate:(fun subset -> evaluate_subset ~rel ~deadline mapping ~subset)
    ~energy:(fun s -> s.energy)

let buckets = 512

let solve_dp ~rel ~deadline mapping =
  let dag = Mapping.dag mapping in
  let tasks = chain_tasks mapping in
  let n = Array.length tasks in
  let frel_floor = Float.max rel.Rel.fmin rel.Rel.frel in
  let base_time =
    Es_util.Futil.sum (Array.map (fun i -> Dag.weight dag i /. frel_floor) tasks)
  in
  let budget = deadline -. base_time in
  if budget <= 0. then
    (* no loose slack: the knapsack view is void, defer to greedy *)
    solve_greedy ~rel ~deadline mapping
  else begin
    (* knapsack items: only tasks whose floor-level re-execution saves
       energy *)
    let items =
      Array.to_list tasks
      |> List.filter_map (fun i ->
             let w = Dag.weight dag i in
             match Rel.min_reexec_speed rel ~w with
             | None -> None
             | Some flo ->
               let flo = Float.max flo rel.Rel.fmin in
               let saving = w *. ((frel_floor *. frel_floor) -. (2. *. flo *. flo)) in
               let cost = (2. *. w /. flo) -. (w /. frel_floor) in
               if saving > 0. && cost > 0. then Some (i, cost, saving) else None)
    in
    let unit = budget /. float_of_int buckets in
    (* cost in slices, rounded up: the chosen set never overruns the
       true budget *)
    let slice c = int_of_float (Float.ceil (c /. unit -. 1e-12)) in
    let value = Array.make (buckets + 1) 0. in
    let chosen = Array.make (buckets + 1) [] in
    List.iter
      (fun (i, cost, saving) ->
        let k = slice cost in
        if k <= buckets then
          for b = buckets downto k do
            let cand = value.(b - k) +. saving in
            if cand > value.(b) then begin
              value.(b) <- cand;
              chosen.(b) <- i :: chosen.(b - k)
            end
          done)
      items;
    let best_b = ref 0 in
    for b = 1 to buckets do
      if value.(b) > value.(!best_b) then best_b := b
    done;
    let subset = Array.make n false in
    List.iter (fun i -> subset.(i) <- true) chosen.(!best_b);
    match evaluate_subset ~rel ~deadline mapping ~subset with
    | Some sol -> Some sol
    | None ->
      (* can only happen through discretisation corner cases *)
      no_reexecution ~rel ~deadline mapping
  end
