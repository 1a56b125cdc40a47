type exact = { schedule : Schedule.t; energy : float; nodes_explored : int }

module Obs = Es_obs.Obs

let c_nodes = Obs.counter "bicrit_discrete_nodes"
let c_pruned = Obs.counter "bicrit_discrete_nodes_pruned"

let ratio_bound ~levels =
  let sorted = Array.copy levels in
  Array.sort Float.compare sorted;
  let worst = ref 1. in
  for k = 0 to Array.length sorted - 2 do
    let r = sorted.(k + 1) /. sorted.(k) in
    if r *. r > !worst then worst := r *. r
  done;
  !worst

(* Longest path strictly after each task (durations given), i.e. the
   minimum time that must elapse between a task's completion and the
   end of the schedule. *)
let tails cdag ~durations =
  let order = Dag.topological_order cdag in
  let tl = Array.make (Dag.n cdag) 0. in
  for k = Dag.n cdag - 1 downto 0 do
    let i = order.(k) in
    tl.(i) <-
      List.fold_left
        (fun acc s -> Float.max acc (durations.(s) +. tl.(s)))
        0. (Dag.succs cdag i)
  done;
  tl

let node_limit = 50_000_000

let solve_exact ~deadline ~levels mapping =
  let cdag = Mapping.constraint_dag mapping in
  let n = Dag.n cdag in
  let sorted = Array.copy levels in
  Array.sort Float.compare sorted;
  let m = Array.length sorted in
  let fmax = sorted.(m - 1) in
  let w = Dag.weights cdag in
  let d_fast = Array.map (fun wi -> wi /. fmax) w in
  let es_fast = Dag.earliest_start cdag ~durations:d_fast in
  let tail_fast = tails cdag ~durations:d_fast in
  (* Feasibility and per-task admissible level floor. *)
  let feasible_at_all =
    Dag.critical_path_length cdag ~durations:d_fast <= deadline *. (1. +. 1e-12)
  in
  if not feasible_at_all then None
  else begin
    let order = Dag.topological_order cdag in
    let level_floor =
      Array.init n (fun i ->
          let avail = deadline -. es_fast.(i) -. tail_fast.(i) in
          let fneed = w.(i) /. avail in
          (* smallest admissible index with level >= fneed (tolerant) *)
          let rec find k =
            if k >= m then m - 1
            else if sorted.(k) >= fneed *. (1. -. 1e-12) then k
            else find (k + 1)
          in
          find 0)
    in
    let min_energy = Array.init n (fun i -> w.(i) *. Es_util.Futil.square sorted.(level_floor.(i))) in
    (* suffix sums of min_energy in topological position order *)
    let suffix = Array.make (n + 1) 0. in
    for k = n - 1 downto 0 do
      suffix.(k) <- suffix.(k + 1) +. min_energy.(order.(k))
    done;
    let assigned = Array.make n (-1) in
    let finish = Array.make n 0. in
    let best_energy = ref infinity in
    let best_assignment = Array.make n (-1) in
    let nodes = ref 0 in
    let rec branch pos acc_energy =
      incr nodes;
      Obs.incr c_nodes;
      if !nodes > node_limit then failwith "Bicrit_discrete.solve_exact: node limit";
      if pos = n then begin
        if acc_energy < !best_energy then begin
          best_energy := acc_energy;
          Array.blit assigned 0 best_assignment 0 n
        end
      end
      else begin
        let i = order.(pos) in
        let start =
          List.fold_left (fun acc p -> Float.max acc finish.(p)) 0. (Dag.preds cdag i)
        in
        for k = level_floor.(i) to m - 1 do
          let f = sorted.(k) in
          let e = acc_energy +. (w.(i) *. f *. f) in
          (* energy bound: assigned energy + per-task floors for the rest *)
          if e +. suffix.(pos + 1) < !best_energy then begin
            let fin = start +. (w.(i) /. f) in
            (* makespan bound: this finish plus the all-fmax tail *)
            if fin +. tail_fast.(i) <= deadline *. (1. +. 1e-12) then begin
              assigned.(i) <- k;
              finish.(i) <- fin;
              branch (pos + 1) e;
              assigned.(i) <- -1
            end
            else Obs.incr c_pruned
          end
          else Obs.incr c_pruned
        done
      end
    in
    branch 0 0.;
    if !best_energy = infinity then None
    else begin
      let speeds = Array.init n (fun i -> sorted.(best_assignment.(i))) in
      let schedule = Schedule.of_speeds mapping ~speeds in
      Some { schedule; energy = !best_energy; nodes_explored = !nodes }
    end
  end

let round_up ~deadline ~levels mapping =
  let cdag = Mapping.constraint_dag mapping in
  let n = Dag.n cdag in
  let sorted = Array.copy levels in
  Array.sort Float.compare sorted;
  let m = Array.length sorted in
  let lo = Array.make n sorted.(0) and hi = Array.make n sorted.(m - 1) in
  match Bicrit_continuous.solve_general ~lo ~hi ~deadline mapping with
  | None -> None
  | Some { speeds; _ } ->
    let rounded =
      Array.map
        (fun f ->
          let rec find k = if sorted.(k) >= f *. (1. -. 1e-12) then sorted.(k) else find (k + 1) in
          find 0)
        speeds
    in
    Some (Schedule.of_speeds mapping ~speeds:rounded)
