type priority =
  | Bottom_level
  | Top_level
  | Heaviest_first
  | Lightest_first
  | Max_out_degree

(* At deadline 0 a task's latest start is [-b -. w], [b] the largest
   bottom level below it; rounding is symmetric in sign, so negating
   it gives [w +. b] bit for bit. *)
let bottom_levels dag =
  Array.map Float.neg (Dag.latest_start dag ~durations:(Dag.weights dag) ~deadline:0.)

let top_levels dag = Dag.earliest_start dag ~durations:(Dag.weights dag)

let rank dag priority =
  match priority with
  | Bottom_level -> bottom_levels dag
  | Top_level -> top_levels dag
  | Heaviest_first -> Array.init (Dag.n dag) (Dag.weight dag)
  | Lightest_first -> Array.init (Dag.n dag) (fun i -> -.Dag.weight dag i)
  | Max_out_degree ->
    Array.init (Dag.n dag) (fun i -> float_of_int (List.length (Dag.succs dag i)))

let schedule dag ~p ~priority =
  assert (p >= 1);
  let n = Dag.n dag in
  let prio = rank dag priority in
  let indeg = Array.init n (fun i -> List.length (Dag.preds dag i)) in
  let finish = Array.make n 0. in
  let proc_free = Array.make p 0. in
  let order = Array.make p [] in
  let ready = ref (List.filter (fun i -> indeg.(i) = 0) (List.init n Fun.id)) in
  let pick () =
    (* highest priority; ties to the smallest id *)
    let best =
      List.fold_left
        (fun acc i ->
          match acc with
          | None -> Some i
          | Some j -> if prio.(i) > prio.(j) then Some i else Some j)
        None !ready
    in
    match best with
    | None -> assert false
    | Some i ->
      ready := List.filter (fun j -> j <> i) !ready;
      i
  in
  let scheduled = ref 0 in
  while !scheduled < n do
    assert (!ready <> []);
    let i = pick () in
    let data_ready =
      List.fold_left (fun acc q -> Float.max acc finish.(q)) 0. (Dag.preds dag i)
    in
    (* processor that allows the earliest start (frees up first) *)
    let best_proc = ref 0 in
    for k = 1 to p - 1 do
      if proc_free.(k) < proc_free.(!best_proc) then best_proc := k
    done;
    let k = !best_proc in
    let start = Float.max data_ready proc_free.(k) in
    finish.(i) <- start +. Dag.weight dag i;
    proc_free.(k) <- finish.(i);
    order.(k) <- i :: order.(k);
    incr scheduled;
    List.iter
      (fun s ->
        indeg.(s) <- indeg.(s) - 1;
        if indeg.(s) = 0 then ready := s :: !ready)
      (Dag.succs dag i)
  done;
  Mapping.make ~p dag ~order:(Array.map List.rev order)

let makespan_at_speed m ~f =
  let dag = Mapping.constraint_dag m in
  let durations = Array.map (fun w -> w /. f) (Dag.weights dag) in
  Dag.critical_path_length dag ~durations

let priority_name = function
  | Bottom_level -> "bottom-level"
  | Top_level -> "top-level"
  | Heaviest_first -> "heaviest-first"
  | Lightest_first -> "lightest-first"
  | Max_out_degree -> "max-out-degree"

let all_priorities =
  [ Bottom_level; Top_level; Heaviest_first; Lightest_first; Max_out_degree ]
