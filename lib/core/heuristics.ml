type solution = {
  schedule : Schedule.t;
  energy : float;
  reexecuted : bool array;
}

(* Effective weight and reliability floor of each task for a given
   re-execution subset; None if some re-executed task cannot meet the
   constraint at any speed. *)
let profile ~rel dag subset =
  let n = Dag.n dag in
  let exception Cannot in
  match
    Array.init n (fun i ->
        let w = Dag.weight dag i in
        if subset.(i) then begin
          match Rel.min_reexec_speed rel ~w with
          | None -> raise Cannot
          | Some flo -> (2. *. w, Float.max rel.Rel.fmin flo)
        end
        else (w, Float.max rel.Rel.fmin rel.Rel.frel))
  with
  | profile -> Some profile
  | exception Cannot -> None

let evaluate_subset ?tol ~rel ~deadline mapping ~subset =
  let dag = Mapping.dag mapping in
  match profile ~rel dag subset with
  | None -> None
  | Some prof ->
    let eff = Array.map fst prof and lo = Array.map snd prof in
    let hi = Array.make (Dag.n dag) rel.Rel.fmax in
    (match Bicrit_continuous.solve_general ~eff_weights:eff ~lo ~hi ?tol ~deadline mapping with
    | None -> None
    | Some { speeds; _ } ->
      let executions =
        Array.init (Dag.n dag) (fun i ->
            let w = Dag.weight dag i in
            let part = { Schedule.speed = speeds.(i); time = w /. speeds.(i) } in
            if subset.(i) then [ [ part ]; [ part ] ] else [ [ part ] ])
      in
      let schedule = Schedule.make mapping ~executions in
      Some { schedule; energy = Schedule.energy schedule; reexecuted = Array.copy subset })

(* An evaluator answers [evaluate_subset] for a tolerance ([None]: the
   default) and a subset.  The families take one, so that [best_of]
   can share one memo among them: within one call the baseline,
   chain_oriented's probes, refinement and polish and
   parallel_oriented's fallback ask for the same subsets. *)
type evaluator = float option -> bool array -> solution option

module Memo = Hashtbl.Make (String)

(* [evaluate_subset] once per (tolerance, subset) *)
let memo_evaluator ~rel ~deadline mapping : evaluator =
  let table = Memo.create 16 in
  fun tol subset ->
    let key =
      String.init (Array.length subset) (fun i -> if subset.(i) then '1' else '0')
      ^ match tol with None -> "" | Some t -> Printf.sprintf "@%h" t
    in
    match Memo.find_opt table key with
    | Some sol -> sol
    | None ->
      let sol = evaluate_subset ?tol ~rel ~deadline mapping ~subset in
      Memo.replace table key sol;
      sol

let baseline_with (eval : evaluator) mapping =
  eval None (Array.make (Dag.n (Mapping.dag mapping)) false)

let baseline ~rel ~deadline mapping = baseline_with (memo_evaluator ~rel ~deadline mapping) mapping

(* ---- family A: chain-oriented ------------------------------------ *)

let chain_oriented_with (eval : evaluator) ~rel mapping =
  let dag = Mapping.dag mapping in
  let n = Dag.n dag in
  match baseline_with eval mapping with
  | None -> None
  | Some base ->
    let base_speed i =
      match Schedule.executions base.schedule i with
      | [ p ] :: _ -> p.Schedule.speed
      | _ -> rel.Rel.frel
    in
    (* optimistic gain of re-executing i: pay 2w·f_lo² instead of the
       current w·f² *)
    let gains =
      Array.init n (fun i ->
          let w = Dag.weight dag i in
          match Rel.min_reexec_speed rel ~w with
          | None -> (i, neg_infinity)
          | Some flo ->
            let flo = Float.max flo rel.Rel.fmin in
            let f = base_speed i in
            (i, (w *. f *. f) -. (2. *. w *. flo *. flo)))
    in
    let ranked =
      gains |> Array.to_list
      |> List.filter (fun (_, g) -> g > 0.)
      |> List.sort (fun (_, a) (_, b) -> Float.compare b a)
      |> List.map fst |> Array.of_list
    in
    let subset_of_prefix k =
      let s = Array.make n false in
      for j = 0 to k - 1 do
        s.(ranked.(j)) <- true
      done;
      s
    in
    (* candidate probes run at a loose duality gap; the winner is
       re-evaluated at full precision below *)
    let evaluate k = eval (Some 1e-4) (subset_of_prefix k) in
    let consider (bk, bsol) k =
      match evaluate k with
      | Some sol when sol.energy < bsol.energy -> (k, sol)
      | _ -> (bk, bsol)
    in
    let m = Array.length ranked in
    (* doubling scan over prefix sizes *)
    let probes =
      let rec doubling k acc = if k > m then acc else doubling (2 * k) (k :: acc) in
      List.sort_uniq Int.compare (m :: doubling 1 [])
    in
    let bk, bsol = List.fold_left consider (0, base) probes in
    (* local refinement around the best prefix *)
    let around = List.filter (fun k -> k >= 0 && k <= m) [ bk - 2; bk - 1; bk + 1; bk + 2 ] in
    let bk, best = List.fold_left consider (bk, bsol) around in
    (* polish the winning subset at full precision *)
    (match eval None (subset_of_prefix bk) with
    | Some polished when polished.energy <= best.energy +. 1e-9 -> Some polished
    | _ -> Some best)

let chain_oriented ~rel ~deadline mapping =
  chain_oriented_with (memo_evaluator ~rel ~deadline mapping) ~rel mapping

(* ---- family B: parallel-oriented --------------------------------- *)

let parallel_oriented_with (eval : evaluator) ~rel ~deadline mapping =
  let dag = Mapping.dag mapping in
  let cdag = Mapping.constraint_dag mapping in
  let n = Dag.n dag in
  let frel_floor = Float.max rel.Rel.frel rel.Rel.fmin in
  let base_durations = Array.init n (fun i -> Dag.weight dag i /. frel_floor) in
  if Dag.critical_path_length cdag ~durations:base_durations > deadline *. (1. +. 1e-9)
  then
    (* not even the all-frel single-execution schedule fits: fall back
       to the baseline (which may speed tasks up beyond frel) *)
    baseline_with eval mapping
  else begin
    let slack0 = Dag.slack cdag ~durations:base_durations ~deadline in
    let floor_of i =
      Option.map (Float.max rel.Rel.fmin) (Rel.min_reexec_speed rel ~w:(Dag.weight dag i))
    in
    let candidates =
      List.init n Fun.id
      |> List.filter (fun i -> floor_of i <> None)
      |> List.sort (fun a b -> Float.compare slack0.(b) slack0.(a))
    in
    let durations = Array.copy base_durations in
    let subset = Array.make n false in
    List.iter
      (fun i ->
        let w = Dag.weight dag i in
        match floor_of i with
        | None -> ()
        | Some flo ->
          (* Re-execute within the float currently available to the
             task: the speed is the slowest that both fits the float
             and respects the reliability floor.  Accept only when it
             beats the single execution at frel (2f² < f_rel²) and the
             critical path indeed stays within the deadline. *)
          let slack = Dag.slack cdag ~durations ~deadline in
          let avail = durations.(i) +. Float.max 0. slack.(i) in
          let f = Float.max flo (2. *. w /. avail) in
          if
            f <= rel.Rel.fmax
            && 2. *. f *. f < frel_floor *. frel_floor
          then begin
            let saved = durations.(i) in
            durations.(i) <- 2. *. w /. f;
            if Dag.critical_path_length cdag ~durations <= deadline *. (1. +. 1e-12)
            then subset.(i) <- true
            else durations.(i) <- saved
          end)
      candidates;
    match eval None subset with
    | Some sol -> Some sol
    | None -> baseline_with eval mapping
  end

let parallel_oriented ~rel ~deadline mapping =
  parallel_oriented_with (memo_evaluator ~rel ~deadline mapping) ~rel ~deadline mapping

type winner = Chain_oriented | Parallel_oriented | Baseline_only

let best_of ~rel ~deadline mapping =
  let eval = memo_evaluator ~rel ~deadline mapping in
  let cands =
    [
      (Baseline_only, baseline_with eval mapping);
      (Chain_oriented, chain_oriented_with eval ~rel mapping);
      (Parallel_oriented, parallel_oriented_with eval ~rel ~deadline mapping);
    ]
  in
  List.fold_left
    (fun acc (who, sol) ->
      match (acc, sol) with
      | None, Some s -> Some (s, who)
      | Some (b, _), Some s when s.energy < b.energy -. 1e-12 -> Some (s, who)
      | acc, _ -> acc)
    None cands

let winner_name = function
  | Chain_oriented -> "chain-oriented"
  | Parallel_oriented -> "parallel-oriented"
  | Baseline_only -> "baseline"

let sweeps = 2
let max_candidates = 20

let local_search ~rel ~deadline mapping start =
  let dag = Mapping.dag mapping in
  let n = Dag.n dag in
  let frel_floor = Float.max rel.Rel.fmin rel.Rel.frel in
  (* rank toggle candidates by the optimistic gain of flipping them *)
  let gain i currently_reexec =
    let w = Dag.weight dag i in
    match Rel.min_reexec_speed rel ~w with
    | None -> neg_infinity
    | Some flo ->
      let flo = Float.max flo rel.Rel.fmin in
      let g = (w *. frel_floor *. frel_floor) -. (2. *. w *. flo *. flo) in
      if currently_reexec then -.g else g
  in
  let current = ref start in
  let continue = ref true in
  let sweep = ref 0 in
  while !continue && !sweep < sweeps do
    incr sweep;
    continue := false;
    let subset = Array.copy !current.reexecuted in
    let candidates =
      List.init n Fun.id
      |> List.map (fun i -> (i, Float.abs (gain i subset.(i))))
      |> List.filter (fun (_, g) -> Float.is_finite g)
      |> List.sort (fun (_, a) (_, b) -> Float.compare b a)
      |> List.filteri (fun k _ -> k < max_candidates)
      |> List.map fst
    in
    let best_toggle = ref None in
    List.iter
      (fun i ->
        subset.(i) <- not subset.(i);
        (match evaluate_subset ~tol:1e-4 ~rel ~deadline mapping ~subset with
        | Some cand when cand.energy < !current.energy -. 1e-9 -> (
          match !best_toggle with
          | Some (_, e) when e <= cand.energy -> ()
          | _ -> best_toggle := Some (i, cand.energy))
        | _ -> ());
        subset.(i) <- not subset.(i))
      candidates;
    match !best_toggle with
    | None -> ()
    | Some (i, _) -> (
      subset.(i) <- not subset.(i);
      (* accept at full precision *)
      match evaluate_subset ~rel ~deadline mapping ~subset with
      | Some sol when sol.energy < !current.energy -. 1e-12 ->
        current := sol;
        continue := true
      | _ -> subset.(i) <- not subset.(i))
  done;
  !current

let best_of_refined ~rel ~deadline mapping =
  match best_of ~rel ~deadline mapping with
  | None -> None
  | Some (sol, who) -> Some (local_search ~rel ~deadline mapping sol, who)
