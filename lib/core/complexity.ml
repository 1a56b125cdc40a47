type two_partition = {
  mapping : Mapping.t;
  levels : float array;
  deadline : float;
  energy_threshold : float;
}

let of_two_partition items =
  if Array.length items = 0 then invalid_arg "Complexity.of_two_partition: empty";
  Array.iter
    (fun a -> if a <= 0 then invalid_arg "Complexity.of_two_partition: non-positive item")
    items;
  let weights = Array.map float_of_int items in
  let s = Es_util.Futil.sum weights in
  let n = Array.length items in
  let edges = List.init (n - 1) (fun i -> (i, i + 1)) in
  let dag = Dag.make ?labels:None ~weights ~edges in
  {
    mapping = Mapping.single_processor dag;
    levels = [| 1.; 2. |];
    deadline = 3. *. s /. 4.;
    energy_threshold = 5. *. s /. 2.;
  }

let decide_two_partition items =
  let r = of_two_partition items in
  match
    Bicrit_discrete.solve_exact ~deadline:r.deadline ~levels:r.levels
      r.mapping
  with
  | None -> false
  | Some { energy; _ } -> energy <= r.energy_threshold *. (1. +. 1e-9)

let two_partition_brute_force items =
  let n = Array.length items in
  let total = Array.fold_left ( + ) 0 items in
  if total mod 2 = 1 then false
  else begin
    let target = total / 2 in
    let rec search i acc = acc = target || (i < n && (search (i + 1) (acc + items.(i)) || search (i + 1) acc)) in
    search 0 0
  end

type knapsack = { savings : float array; costs : float array; budget : float }

let knapsack_view ~rel ~deadline ~weights =
  let exception Cannot in
  match
    Array.map
      (fun w -> match Rel.knapsack_item rel ~w with Some k -> k | None -> raise Cannot)
      weights
  with
  | exception Cannot -> None
  | items ->
    let budget =
      deadline -. Es_util.Futil.sum (Array.map (fun w -> w /. rel.Rel.frel) weights)
    in
    Some
      {
        savings = Array.map (fun (k : Rel.item) -> k.saving) items;
        costs = Array.map (fun (k : Rel.item) -> k.extra_time) items;
        budget;
      }

let knapsack_optimal k =
  let n = Array.length k.savings in
  let best = ref 0. and best_set = ref (Array.make n false) in
  let set = Array.make n false in
  let rec enum i saving cost =
    if cost > k.budget +. 1e-12 then ()
    else if i = n then begin
      if saving > !best then begin
        best := saving;
        best_set := Array.copy set
      end
    end
    else begin
      set.(i) <- false;
      enum (i + 1) saving cost;
      set.(i) <- true;
      enum (i + 1) (saving +. k.savings.(i)) (cost +. k.costs.(i));
      set.(i) <- false
    end
  in
  enum 0 0. 0.;
  (!best_set, !best)

let incremental_of_two_partition items =
  let r = of_two_partition items in
  (* {1, 2} is exactly the incremental grid fmin=1, delta=1, fmax=2 *)
  (match Speed.levels (Speed.incremental ~fmin:1. ~fmax:2. ~delta:1.) with
  | Some grid -> assert (grid = r.levels)
  | None -> assert false);
  r
