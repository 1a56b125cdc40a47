type decision = { reexec : bool; speed : float; energy : float }

let best_in_window ~rel ~w ~window =
  if window <= 0. then None
  else begin
    let fmax = rel.Rel.fmax in
    (* the slowest speed at which a choice fits the window *)
    let price reexec (c : Rel.choice) =
      let f = Float.max c.floor (c.time /. window) in
      if f <= fmax *. (1. +. 1e-12) then begin
        let f = Float.min f fmax in
        Some { reexec; speed = f; energy = c.energy *. f *. f }
      end
      else None
    in
    match (price false (Rel.once rel ~w), Option.bind (Rel.twice rel ~w) (price true)) with
    | None, d -> d
    | s, None -> s
    | Some s, Some d -> Some (if d.energy < s.energy then d else s)
  end

type solution = {
  schedule : Schedule.t;
  energy : float;
  reexecuted : bool array;
  source_window : float;
}

let check_fork dag =
  let n = Dag.n dag in
  if n < 2 then invalid_arg "Tricrit_fork: need a source and at least one child";
  if Dag.preds dag 0 <> [] then invalid_arg "Tricrit_fork: task 0 must be the source";
  for i = 1 to n - 1 do
    if Dag.preds dag i <> [ 0 ] || Dag.succs dag i <> [] then
      invalid_arg "Tricrit_fork: not a fork rooted at task 0"
  done

let total_cost ~rel ~deadline dag t0 =
  let n = Dag.n dag in
  let source = best_in_window ~rel ~w:(Dag.weight dag 0) ~window:t0 in
  match source with
  | None -> None
  | Some s ->
    let rec children i acc =
      if i = n then Some (List.rev acc)
      else begin
        match best_in_window ~rel ~w:(Dag.weight dag i) ~window:(deadline -. t0) with
        | None -> None
        | Some d -> children (i + 1) (d :: acc)
      end
    in
    (match children 1 [] with
    | None -> None
    | Some ds ->
      let energy =
        List.fold_left (fun acc (d : decision) -> acc +. d.energy) s.energy ds
      in
      Some (energy, s, ds))

let grid = 512

let solve ~rel ~deadline dag =
  check_fork dag;
  let w0 = Dag.weight dag 0 in
  let t0_min = w0 /. rel.Rel.fmax in
  let t0_max = deadline in
  if t0_min >= t0_max then None
  else begin
    let cost t0 = match total_cost ~rel ~deadline dag t0 with Some (e, _, _) -> e | None -> infinity in
    (* coarse scan *)
    let best_t = ref nan and best_e = ref infinity in
    for k = 0 to grid do
      let t0 = t0_min +. ((t0_max -. t0_min) *. float_of_int k /. float_of_int grid) in
      let e = cost t0 in
      if e < !best_e then begin
        best_e := e;
        best_t := t0
      end
    done;
    if !best_e = infinity then None
    else begin
      (* golden refinement around the best cell *)
      let cell = (t0_max -. t0_min) /. float_of_int grid in
      let lo = Float.max t0_min (!best_t -. cell) in
      let hi = Float.min t0_max (!best_t +. cell) in
      let t_star = Es_numopt.Scalar.golden_min ~tol:1e-12 ~f:cost ~lo ~hi in
      let t_star = if cost t_star <= !best_e then t_star else !best_t in
      match total_cost ~rel ~deadline dag t_star with
      | None -> None
      | Some (energy, s, ds) ->
        let decisions = Array.of_list (s :: ds) in
        let reexecuted = Array.map (fun d -> d.reexec) decisions in
        let schedule =
          Schedule.of_speeds ~reexecuted (Mapping.one_task_per_proc dag)
            ~speeds:(Array.map (fun d -> d.speed) decisions)
        in
        Some { schedule; energy; reexecuted; source_window = t_star }
    end
  end
