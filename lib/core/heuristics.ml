type solution = {
  schedule : Schedule.t;
  energy : float;
  reexecuted : bool array;
}

let evaluate_subset ~rel ~deadline mapping ~subset =
  let dag = Mapping.dag mapping in
  match Rel.choices rel ~weights:(Dag.weights dag) ~subset with
  | None -> None
  | Some choices ->
    let eff = Array.map (fun (c : Rel.choice) -> c.time) choices in
    let lo = Array.map (fun (c : Rel.choice) -> c.floor) choices in
    let hi = Array.make (Dag.n dag) rel.Rel.fmax in
    (match Bicrit_continuous.solve_general ~eff_weights:eff ~lo ~hi ~deadline mapping with
    | None -> None
    | Some { speeds; _ } ->
      let schedule = Schedule.of_speeds ~reexecuted:subset mapping ~speeds in
      Some { schedule; energy = Schedule.energy schedule; reexecuted = Array.copy subset })

(* An evaluator answers [evaluate_subset] for a subset.  The families
   take one, so that [best_of] can share one memo among them: within
   one call the baseline, chain_oriented's probes and refinement and
   parallel_oriented's fallback ask for the same subsets. *)
type evaluator = bool array -> solution option

module Memo = Hashtbl.Make (String)

(* [evaluate_subset] once per subset *)
let memo_evaluator ~rel ~deadline mapping : evaluator =
  let table = Memo.create 16 in
  fun subset ->
    let key = String.init (Array.length subset) (fun i -> if subset.(i) then '1' else '0') in
    match Memo.find_opt table key with
    | Some sol -> sol
    | None ->
      let sol = evaluate_subset ~rel ~deadline mapping ~subset in
      Memo.replace table key sol;
      sol

let baseline_with (eval : evaluator) mapping =
  eval (Array.make (Dag.n (Mapping.dag mapping)) false)

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
          match Rel.twice rel ~w with
          | None -> (i, neg_infinity)
          | Some (t : Rel.choice) ->
            let f = base_speed i in
            (i, (w *. f *. f) -. (t.energy *. t.floor *. t.floor)))
    in
    (* rank by the gain rounded to 1e-9 of the largest one, ties in
       task order: tasks of equal weight tie in exact arithmetic, and
       their order must not follow the solver's last bits *)
    let positive = gains |> Array.to_list |> List.filter (fun (_, g) -> g > 0.) in
    let quantum = 1e-9 *. List.fold_left (fun acc (_, g) -> Float.max acc g) 0. positive in
    let ranked =
      positive
      |> List.map (fun (i, g) -> (i, Float.round (g /. quantum)))
      |> List.stable_sort (fun (_, a) (_, b) -> Float.compare b a)
      |> List.map fst |> Array.of_list
    in
    let subset_of_prefix k =
      let s = Array.make n false in
      for j = 0 to k - 1 do
        s.(ranked.(j)) <- true
      done;
      s
    in
    let consider (bk, bsol) k =
      match eval (subset_of_prefix k) with
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
    Some (snd (List.fold_left consider (bk, bsol) around))

let chain_oriented ~rel ~deadline mapping =
  chain_oriented_with (memo_evaluator ~rel ~deadline mapping) ~rel mapping

(* ---- family B: parallel-oriented --------------------------------- *)

let parallel_oriented_with (eval : evaluator) ~rel ~deadline mapping =
  let dag = Mapping.dag mapping in
  let cdag = Mapping.constraint_dag mapping in
  let n = Dag.n dag in
  let frel = rel.Rel.frel in
  let base_durations = Array.init n (fun i -> Dag.weight dag i /. frel) in
  if Dag.critical_path_length cdag ~durations:base_durations > deadline *. (1. +. 1e-9)
  then
    (* not even the all-frel single-execution schedule fits: fall back
       to the baseline (which may speed tasks up beyond frel) *)
    baseline_with eval mapping
  else begin
    let slack0 = Dag.slack cdag ~durations:base_durations ~deadline in
    let twice = Array.init n (fun i -> Rel.twice rel ~w:(Dag.weight dag i)) in
    let candidates =
      List.init n Fun.id
      |> List.filter (fun i -> twice.(i) <> None)
      |> List.sort (fun a b -> Float.compare slack0.(b) slack0.(a))
    in
    let durations = Array.copy base_durations in
    let subset = Array.make n false in
    List.iter
      (fun i ->
        match twice.(i) with
        | None -> ()
        | Some (t : Rel.choice) ->
          (* Re-execute within the float currently available to the
             task: the speed is the slowest that both fits the float
             and respects the reliability floor.  Accept only when it
             beats the single execution at frel (2f² < f_rel²) and the
             critical path indeed stays within the deadline. *)
          let slack = Dag.slack cdag ~durations ~deadline in
          let avail = durations.(i) +. Float.max 0. slack.(i) in
          let f = Float.max t.floor (t.time /. avail) in
          if f <= rel.Rel.fmax && 2. *. f *. f < frel *. frel then begin
            let saved = durations.(i) in
            durations.(i) <- t.time /. f;
            if Dag.critical_path_length cdag ~durations <= deadline *. (1. +. 1e-12)
            then subset.(i) <- true
            else durations.(i) <- saved
          end)
      candidates;
    match eval subset with
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
  (* toggle candidates, ranked by the optimistic gain of flipping them:
     the knapsack item's saving, in either direction *)
  let candidates =
    List.init n Fun.id
    |> List.filter_map (fun i ->
           Option.map
             (fun (k : Rel.item) -> (i, Float.abs k.saving))
             (Rel.knapsack_item rel ~w:(Dag.weight dag i)))
    |> List.filter (fun (_, g) -> Float.is_finite g)
    |> List.sort (fun (_, a) (_, b) -> Float.compare b a)
    |> List.filteri (fun k _ -> k < max_candidates)
    |> List.map fst
  in
  let current = ref start in
  let continue = ref true in
  let sweep = ref 0 in
  while !continue && !sweep < sweeps do
    incr sweep;
    continue := false;
    let subset = Array.copy !current.reexecuted in
    let best_toggle = ref None in
    List.iter
      (fun i ->
        subset.(i) <- not subset.(i);
        (match evaluate_subset ~rel ~deadline mapping ~subset with
        | Some cand when cand.energy < !current.energy -. 1e-9 -> (
          match !best_toggle with
          | Some best when best.energy <= cand.energy -> ()
          | _ -> best_toggle := Some cand)
        | _ -> ());
        subset.(i) <- not subset.(i))
      candidates;
    Option.iter
      (fun best ->
        current := best;
        continue := true)
      !best_toggle
  done;
  !current
