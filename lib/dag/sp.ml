type t = Leaf of float | Series of t * t | Parallel of t * t

let leaf w = Leaf w

let fold1 f = function
  | [] -> invalid_arg "Sp: empty composition"
  | x :: rest -> List.fold_left f x rest

let series l = fold1 (fun a b -> Series (a, b)) l
let parallel l = fold1 (fun a b -> Parallel (a, b)) l
let chain ws = series (List.map leaf (Array.to_list ws))
let fork ~root ws = Series (leaf root, parallel (List.map leaf (Array.to_list ws)))

let rec n_tasks = function
  | Leaf _ -> 1
  | Series (a, b) | Parallel (a, b) -> n_tasks a + n_tasks b

let rec total_weight = function
  | Leaf w -> w
  | Series (a, b) | Parallel (a, b) -> total_weight a +. total_weight b

let weights t =
  let acc = ref [] in
  let rec visit = function
    | Leaf w -> acc := w :: !acc
    | Series (a, b) | Parallel (a, b) ->
      visit a;
      visit b
  in
  visit t;
  Array.of_list (List.rev !acc)

let to_dag t =
  let weights = weights t in
  let next = ref 0 in
  let edges = ref [] in
  (* returns (sources, sinks) of the subgraph *)
  let rec build = function
    | Leaf _ ->
      let id = !next in
      incr next;
      ([ id ], [ id ])
    | Series (a, b) ->
      let src_a, sink_a = build a in
      let src_b, sink_b = build b in
      List.iter (fun s -> List.iter (fun d -> edges := (s, d) :: !edges) src_b) sink_a;
      (src_a, sink_b)
    | Parallel (a, b) ->
      let src_a, sink_a = build a in
      let src_b, sink_b = build b in
      (src_a @ src_b, sink_a @ sink_b)
  in
  ignore (build t);
  Dag.make ?labels:None ~weights ~edges:!edges

(* --- recognition ------------------------------------------------- *)

module ISet = Set.Make (Int)

let of_dag dag =
  let exception Not_sp in
  (* Work on subsets of task ids with edges induced from [dag]. *)
  let succs_in set i = List.filter (fun j -> ISet.mem j set) (Dag.succs dag i) in
  let preds_in set i = List.filter (fun j -> ISet.mem j set) (Dag.preds dag i) in
  let components set =
    (* weakly connected components of the induced subgraph *)
    let remaining = ref set and comps = ref [] in
    while not (ISet.is_empty !remaining) do
      let seed = ISet.min_elt !remaining in
      let comp = ref ISet.empty in
      let stack = ref [ seed ] in
      while !stack <> [] do
        match !stack with
        | [] -> ()
        | i :: rest ->
          stack := rest;
          if (not (ISet.mem i !comp)) && ISet.mem i !remaining then begin
            comp := ISet.add i !comp;
            List.iter (fun j -> stack := j :: !stack) (succs_in !remaining i);
            List.iter (fun j -> stack := j :: !stack) (preds_in !remaining i)
          end
      done;
      remaining := ISet.diff !remaining !comp;
      comps := !comp :: !comps
    done;
    List.rev !comps
  in
  (* The DAG's order restricted to a subset orders the induced
     subgraph.  Any order finds the same cuts: a series cut A ; B joins
     every sink of A to every source of B, so every task of A precedes
     every task of B in every topological order. *)
  let order = Dag.topological_order dag in
  let topo_of set = Array.of_seq (Seq.filter (fun i -> ISet.mem i set) (Array.to_seq order)) in
  let rec decompose set =
    if ISet.cardinal set = 1 then Leaf (Dag.weight dag (ISet.min_elt set))
    else begin
      match components set with
      | [] -> raise Not_sp
      | _ :: _ :: _ as comps -> parallel (List.map decompose comps)
      | [ _single ] ->
        (* connected: look for a series prefix cut in topological order *)
        let order = topo_of set in
        let n = Array.length order in
        let cut = ref None in
        let k = ref 1 in
        while !cut = None && !k < n do
          let a = ISet.of_list (Array.to_list (Array.sub order 0 !k)) in
          let b = ISet.diff set a in
          let sink_a = ISet.filter (fun i -> succs_in a i = []) a in
          let src_b = ISet.filter (fun i -> preds_in b i = []) b in
          (* cross edges must be exactly sink_a × src_b *)
          let ok = ref true in
          ISet.iter
            (fun i ->
              List.iter
                (fun j ->
                  if ISet.mem j b then
                    if not (ISet.mem i sink_a && ISet.mem j src_b) then ok := false)
                (succs_in set i))
            a;
          if !ok then
            ISet.iter
              (fun i ->
                ISet.iter
                  (fun j -> if not (Dag.is_edge dag i j) then ok := false)
                  src_b)
              sink_a;
          if !ok then cut := Some (a, b) else incr k
        done;
        (match !cut with
        | Some (a, b) -> Series (decompose a, decompose b)
        | None -> raise Not_sp)
    end
  in
  let all = ISet.of_list (List.init (Dag.n dag) Fun.id) in
  if ISet.is_empty all then None
  else match decompose all with sp -> Some sp | exception Not_sp -> None

let rec pp ppf = function
  | Leaf w -> Format.fprintf ppf "%g" w
  | Series (a, b) -> Format.fprintf ppf "(%a ; %a)" pp a pp b
  | Parallel (a, b) -> Format.fprintf ppf "(%a | %a)" pp a pp b
