type task = int

type t = {
  n : int;
  weights : float array;
  labels : string array;
  succs : task list array; (* ascending *)
  preds : task list array; (* ascending *)
}

let n t = t.n
let weight t i = t.weights.(i)
let weights t = Array.copy t.weights
let label t i = t.labels.(i)
let succs t i = t.succs.(i)
let preds t i = t.preds.(i)

let edges t =
  let acc = ref [] in
  for i = t.n - 1 downto 0 do
    List.iter (fun j -> acc := (i, j) :: !acc) t.succs.(i)
  done;
  !acc

let n_edges t = Array.fold_left (fun acc l -> acc + List.length l) 0 t.succs

let sources t =
  List.filter (fun i -> t.preds.(i) = []) (List.init t.n Fun.id)

let sinks t = List.filter (fun i -> t.succs.(i) = []) (List.init t.n Fun.id)

let topological_order t =
  let indeg = Array.map List.length t.preds in
  let module Q = Set.Make (Int) in
  let ready = ref Q.empty in
  Array.iteri (fun i d -> if d = 0 then ready := Q.add i !ready) indeg;
  let order = Array.make t.n 0 in
  let k = ref 0 in
  while not (Q.is_empty !ready) do
    let i = Q.min_elt !ready in
    ready := Q.remove i !ready;
    order.(!k) <- i;
    incr k;
    List.iter
      (fun j ->
        indeg.(j) <- indeg.(j) - 1;
        if indeg.(j) = 0 then ready := Q.add j !ready)
      t.succs.(i)
  done;
  if !k <> t.n then invalid_arg "Dag: cycle detected";
  order

let make ?labels ~weights ~edges =
  let n = Array.length weights in
  Array.iteri
    (fun i w -> if w <= 0. then invalid_arg (Printf.sprintf "Dag.make: weight %d not positive" i))
    weights;
  let labels =
    match labels with
    | Some l ->
      if Array.length l <> n then invalid_arg "Dag.make: labels length mismatch";
      Array.copy l
    | None -> Array.init n (Printf.sprintf "T%d")
  in
  let succs = Array.make n [] and preds = Array.make n [] in
  let seen = Hashtbl.create (List.length edges) in
  List.iter
    (fun (i, j) ->
      if i < 0 || i >= n || j < 0 || j >= n then invalid_arg "Dag.make: edge out of range";
      if i = j then invalid_arg "Dag.make: self loop";
      if not (Hashtbl.mem seen (i, j)) then begin
        Hashtbl.add seen (i, j) ();
        succs.(i) <- j :: succs.(i);
        preds.(j) <- i :: preds.(j)
      end)
    edges;
  Array.iteri (fun i l -> succs.(i) <- List.sort Int.compare l) succs;
  Array.iteri (fun i l -> preds.(i) <- List.sort Int.compare l) preds;
  let t = { n; weights = Array.copy weights; labels; succs; preds } in
  ignore (topological_order t);
  t

let total_weight t = Es_util.Futil.sum t.weights
let is_edge t i j = List.mem j t.succs.(i)

let map_weights t f =
  { t with weights = Array.mapi (fun i w -> f i w) t.weights }

let earliest_start t ~durations =
  assert (Array.length durations = t.n);
  let order = topological_order t in
  let es = Array.make t.n 0. in
  Array.iter
    (fun i ->
      let start =
        List.fold_left (fun acc p -> Float.max acc (es.(p) +. durations.(p))) 0. t.preds.(i)
      in
      es.(i) <- start)
    order;
  es

let critical_path_length t ~durations =
  let es = earliest_start t ~durations in
  let finish = ref 0. in
  for i = 0 to t.n - 1 do
    finish := Float.max !finish (es.(i) +. durations.(i))
  done;
  !finish

let latest_start t ~durations ~deadline =
  assert (Array.length durations = t.n);
  let order = topological_order t in
  let ls = Array.make t.n 0. in
  for k = t.n - 1 downto 0 do
    let i = order.(k) in
    let latest_finish =
      List.fold_left (fun acc s -> Float.min acc ls.(s)) deadline t.succs.(i)
    in
    ls.(i) <- latest_finish -. durations.(i)
  done;
  ls

let slack t ~durations ~deadline =
  let es = earliest_start t ~durations in
  let ls = latest_start t ~durations ~deadline in
  Array.init t.n (fun i -> ls.(i) -. es.(i))

(* Edge (i, j) is implied iff j is a descendant of another successor of
   i.  Only a head with two predecessors or more can be implied: the
   other path enters j from a task that is not i.  Tails go in reverse
   topological order.  Each task keeps its descendants among the [w]
   tasks ranked next after it as a bit set, from its successors' sets
   (O(1) per edge), and a head within that window of its tail is
   implied iff it is in the union of the successors' sets.  A head
   ranked further away is found by a marking DFS from the tail's
   successors, which need not pass the head's rank since no task
   ranked later leads back to it. *)
let transitive_reduction t =
  let n = t.n in
  (* rank.(v): v's position in Kahn's queue order, which ranks tasks
     by depth and keeps windows shorter than the smallest-id order of
     [topological_order] *)
  let rank = Array.make n 0 and queue = Array.make n 0 and indeg = Array.make n 0 in
  Array.iter (List.iter (fun j -> indeg.(j) <- indeg.(j) + 1)) t.succs;
  let tail = ref 0 in
  let enqueue j =
    queue.(!tail) <- j;
    incr tail
  in
  Array.iteri (fun i d -> if d = 0 then enqueue i) indeg;
  for k = 0 to n - 1 do
    let i = queue.(k) in
    rank.(i) <- k;
    List.iter
      (fun j ->
        indeg.(j) <- indeg.(j) - 1;
        if indeg.(j) = 0 then enqueue j)
      t.succs.(i)
  done;
  (* near.(v): bit k set iff the task ranked rank.(v) + 1 + k descends
     from v, for k < w *)
  let w = 62 in
  let mask = (1 lsl w) - 1 and near = Array.make n 0 in
  (* reached.(v) = i: the DFS of tail i reached v *)
  let reached = Array.make n (-1) and stack = Array.make (2 * n) 0 and top = ref 0 in
  let push v =
    stack.(!top) <- v;
    incr top
  in
  let dropped = ref false and succs = Array.copy t.succs in
  for k = n - 1 downto 0 do
    let i = queue.(k) in
    let ss = t.succs.(i) in
    (* [below]: the window set of the successors' descendants; [limit]:
       the rank of the last candidate head past the window *)
    let below = ref 0 and heads = ref 0 and limit = ref (-1) in
    List.iter
      (fun s ->
        let d = rank.(s) - k in
        if d <= w then begin
          below := !below lor ((near.(s) lsl d) land mask);
          heads := !heads lor (1 lsl (d - 1))
        end
        else
          match t.preds.(s) with
          | _ :: _ :: _ -> limit := max !limit rank.(s)
          | [] | [ _ ] -> ())
      ss;
    near.(i) <- !below lor !heads;
    let below = !below and limit = !limit in
    let rec expand = function
      | [] -> ()
      | c :: rest ->
        if rank.(c) <= limit && reached.(c) <> i then begin
          reached.(c) <- i;
          push c
        end;
        expand rest
    in
    List.iter (fun s -> if rank.(s) < limit then push s) ss;
    while !top > 0 do
      decr top;
      expand t.succs.(stack.(!top))
    done;
    let implied j =
      let d = rank.(j) - k in
      if d <= w then (below lsr (d - 1)) land 1 = 1 else reached.(j) = i
    in
    if List.exists implied ss then begin
      dropped := true;
      succs.(i) <- List.filter (fun j -> not (implied j)) ss
    end
  done;
  if not !dropped then t
  else begin
    let preds = Array.make n [] in
    for i = n - 1 downto 0 do
      List.iter (fun j -> preds.(j) <- i :: preds.(j)) succs.(i)
    done;
    { t with succs; preds }
  end

let reverse t =
  let edges = List.map (fun (i, j) -> (j, i)) (edges t) in
  make ~labels:t.labels ~weights:t.weights ~edges

let pp ppf t =
  for i = 0 to t.n - 1 do
    Format.fprintf ppf "%s (w=%g) -> %s@."
      t.labels.(i) t.weights.(i)
      (String.concat ", " (List.map (fun j -> t.labels.(j)) t.succs.(i)))
  done
