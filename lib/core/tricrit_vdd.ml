module Problem = Es_lp.Problem
module Obs = Es_obs.Obs

type solution = {
  schedule : Schedule.t;
  energy : float;
  reexecuted : bool array;
}

let c_subsets = Obs.counter "tricrit_vdd_subsets"
let c_cache_hits = Obs.counter "tricrit_vdd_probe_cache_hits"
let c_cache_misses = Obs.counter "tricrit_vdd_probe_cache_misses"

let solve_subset_split ~rel ~deadline ~levels mapping ~subset ~splits =
  Obs.incr c_subsets;
  let cdag = Mapping.constraint_dag mapping in
  let n = Dag.n cdag in
  assert (Array.length subset = n);
  assert (Array.length splits = n);
  let m = Array.length levels in
  let lp = Problem.create () in
  (* alphas.(i) is one array of per-level time shares per execution *)
  let alphas =
    Array.init n (fun i ->
        let n_exec = if subset.(i) then 2 else 1 in
        Array.init n_exec (fun _ ->
            Array.init m (fun k ->
                Problem.var lp ~obj:(levels.(k) *. levels.(k) *. levels.(k)) ())))
  in
  let start = Array.init n (fun _ -> Problem.var lp ()) in
  let task_time_expr i =
    Array.to_list alphas.(i)
    |> List.concat_map (fun exec -> Array.to_list (Array.map (fun v -> (1., v)) exec))
  in
  let feasible = ref true in
  for i = 0 to n - 1 do
    let w = Dag.weight cdag i in
    let target = Rel.target_failure rel ~w in
    (* per-execution budgets: θ / 1−θ exponents keep the product at
       the exact target for any split of a sub-1 target *)
    let budgets =
      if subset.(i) then [| target ** splits.(i); target ** (1. -. splits.(i)) |]
      else [| target |]
    in
    Array.iteri
      (fun e exec ->
        (* work conservation per execution *)
        Problem.eq lp
          (Array.to_list (Array.mapi (fun k v -> (levels.(k), v)) exec))
          w;
        (* linear reliability budget per execution *)
        Problem.le lp
          (Array.to_list (Array.mapi (fun k v -> (Rel.rate rel ~f:levels.(k), v)) exec))
          budgets.(e))
      alphas.(i);
    (* even the fastest level must be able to meet every budget *)
    let top = levels.(Array.length levels - 1) in
    Array.iter
      (fun budget ->
        if Rel.failure_prob rel ~f:top ~w > budget *. (1. +. 1e-9) then feasible := false)
      budgets;
    Problem.le lp ((1., start.(i)) :: task_time_expr i) deadline
  done;
  List.iter
    (fun (i, j) ->
      Problem.le lp (((1., start.(i)) :: task_time_expr i) @ [ (-1., start.(j)) ]) 0.)
    (Dag.edges cdag);
  if not !feasible then None
  else begin
    match Problem.solve lp with
    | Problem.Infeasible -> None
    | Problem.Unbounded -> assert false
    | Problem.Solution s ->
      let executions =
        Array.init n (fun i ->
            let w = Dag.weight cdag i in
            Array.to_list alphas.(i)
            |> List.map (fun exec ->
                   let parts = ref [] in
                   let total =
                     Es_util.Futil.sum (Array.map (Problem.value s) exec)
                   in
                   Array.iteri
                     (fun k v ->
                       let t = Problem.value s v in
                       if t > 1e-9 *. Float.max total 1. then
                         parts := { Schedule.speed = levels.(k); time = t } :: !parts)
                     exec;
                   let parts = List.rev !parts in
                   let work =
                     Es_util.Futil.sum_by
                       (fun (p : Schedule.part) -> p.speed *. p.time)
                       parts
                   in
                   let scale = w /. work in
                   List.map
                     (fun (p : Schedule.part) -> { p with Schedule.time = p.time *. scale })
                     parts))
      in
      let schedule = Schedule.make mapping ~executions in
      Some { schedule; energy = Schedule.energy schedule; reexecuted = Array.copy subset }
  end

let solve_subset ~rel ~deadline ~levels mapping ~subset =
  let n = Array.length subset in
  solve_subset_split ~rel ~deadline ~levels mapping ~subset ~splits:(Array.make n 0.5)

let refine_splits ?(rounds = 1) ?(use_cache = true) ~rel ~deadline ~levels mapping
    solution =
  let subset = solution.reexecuted in
  let n = Array.length subset in
  let splits = Array.make n 0.5 in
  (* Probe memo: the subset LP as a function of (i, θ), valid for the
     current committed splits of every other task.  A committed change
     alters the LP for all tasks, so commits clear the table.  This
     removes the re-solves the seed code paid for the accepted θ
     ([cost theta] followed by [energy_at ()] on the same LP) and lets
     any later sweep over an unchanged task replay from cache instead
     of re-solving the whole golden-section trajectory. *)
  let cache : (int * float, solution option) Hashtbl.t = Hashtbl.create 64 in
  let solve_at i theta =
    match if use_cache then Hashtbl.find_opt cache (i, theta) else None with
    | Some res ->
      Obs.incr c_cache_hits;
      res
    | None ->
      Obs.incr c_cache_misses;
      let saved = splits.(i) in
      splits.(i) <- theta;
      let res = solve_subset_split ~rel ~deadline ~levels mapping ~subset ~splits in
      splits.(i) <- saved;
      if use_cache then Hashtbl.replace cache (i, theta) res;
      res
  in
  let best = ref solution in
  for _ = 1 to rounds do
    for i = 0 to n - 1 do
      if subset.(i) then begin
        let cost theta =
          match solve_at i theta with Some s -> s.energy | None -> infinity
        in
        let theta =
          Es_numopt.Scalar.golden_min ?max_iters:None ~tol:1e-3 ~f:cost ~lo:0.15 ~hi:0.85
        in
        if cost theta < !best.energy -. 1e-12 then begin
          (* the accepted probe was just solved by [cost]: with the
             cache this lookup is free, uncached it re-solves the LP *)
          match solve_at i theta with
          | Some s ->
            splits.(i) <- theta;
            (* committing θᵢ changes the LP seen by every other task *)
            Hashtbl.reset cache;
            best := s
          | None -> ()
        end
      end
    done
  done;
  !best

let solve_exact ?(max_n = 12) ~rel ~deadline ~levels mapping =
  let n = Dag.n (Mapping.dag mapping) in
  if n > max_n then
    invalid_arg (Printf.sprintf "Tricrit_vdd.solve_exact: n = %d > %d" n max_n);
  let best = ref None in
  let subset = Array.make n false in
  let consider () =
    match solve_subset ~rel ~deadline ~levels mapping ~subset with
    | None -> ()
    | Some sol -> (
      match !best with
      | Some b when b.energy <= sol.energy -> ()
      | _ -> best := Some sol)
  in
  let rec enum i =
    if i = n then consider ()
    else begin
      subset.(i) <- false;
      enum (i + 1);
      subset.(i) <- true;
      enum (i + 1);
      subset.(i) <- false
    end
  in
  enum 0;
  !best

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
