type task = int

type t = {
  n : int;
  weights : float array;
  labels : string array option; (* [None]: task i is "T<i>" *)
  succs : task list array; (* ascending *)
  preds : task list array; (* ascending *)
  order : task array; (* Kahn's order, computed once by [make] *)
}

let n t = t.n
let weight t i = t.weights.(i)
let weights t = Array.copy t.weights
let succs t i = t.succs.(i)
let preds t i = t.preds.(i)

(* A task without a given label is formatted when asked for, as
   [Printf.sprintf "T%d"] would: most DAGs are never printed.  A task
   out of range fails the weights' bounds check, as it fails a given
   label array's. *)
let label t i =
  match t.labels with
  | Some labels -> labels.(i)
  | None ->
    ignore (t.weights.(i) : float);
    "T" ^ Int.to_string i

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

(* Kahn's algorithm, the smallest ready task first.  The ready tasks
   are a binary min-heap of ids in [heap.(0 .. !size - 1)]; no step
   allocates.  Only [make] runs it: every DAG keeps the order. *)
let kahn ~preds ~succs =
  let n = Array.length preds in
  let indeg = Array.map List.length preds in
  let heap = Array.make n 0 and size = ref 0 in
  let push v =
    let k = ref !size in
    incr size;
    while !k > 0 && heap.((!k - 1) / 2) > v do
      heap.(!k) <- heap.((!k - 1) / 2);
      k := (!k - 1) / 2
    done;
    heap.(!k) <- v
  in
  let pop () =
    let top = heap.(0) in
    decr size;
    let last = heap.(!size) and k = ref 0 and sifting = ref true in
    while !sifting do
      let c = (2 * !k) + 1 in
      let c = if c + 1 < !size && heap.(c + 1) < heap.(c) then c + 1 else c in
      if c < !size && heap.(c) < last then begin
        heap.(!k) <- heap.(c);
        k := c
      end
      else sifting := false
    done;
    heap.(!k) <- last;
    top
  in
  let release j =
    indeg.(j) <- indeg.(j) - 1;
    if indeg.(j) = 0 then push j
  in
  Array.iteri (fun i d -> if d = 0 then push i) indeg;
  let order = Array.make n 0 and k = ref 0 in
  while !size > 0 do
    let i = pop () in
    order.(!k) <- i;
    incr k;
    List.iter release succs.(i)
  done;
  if !k <> n then invalid_arg "Dag: cycle detected";
  order

(* Every edge is checked (range, then self-loop) and pushed in list
   order; sorting each adjacency list without repeats then collapses
   duplicate edges.  A list of one task or none is kept as it is,
   without the closures [List.sort_uniq] allocates per call. *)
let make ?labels ~weights ~edges =
  let n = Array.length weights in
  Array.iteri
    (fun i w -> if w <= 0. then invalid_arg (Printf.sprintf "Dag.make: weight %d not positive" i))
    weights;
  let labels =
    match labels with
    | Some l ->
      if Array.length l <> n then invalid_arg "Dag.make: labels length mismatch";
      Some (Array.copy l)
    | None -> None
  in
  let succs = Array.make n [] and preds = Array.make n [] in
  List.iter
    (fun (i, j) ->
      if i < 0 || i >= n || j < 0 || j >= n then invalid_arg "Dag.make: edge out of range";
      if i = j then invalid_arg "Dag.make: self loop";
      succs.(i) <- j :: succs.(i);
      preds.(j) <- i :: preds.(j))
    edges;
  let sort_uniq = function ([] | [ _ ]) as l -> l | l -> List.sort_uniq Int.compare l in
  for i = 0 to n - 1 do
    succs.(i) <- sort_uniq succs.(i);
    preds.(i) <- sort_uniq preds.(i)
  done;
  { n; weights = Array.copy weights; labels; succs; preds; order = kahn ~preds ~succs }

(* [l], ascending without repeats, with [x]: [l] itself when it holds
   [x] already. *)
let insert x l =
  let rec go acc = function
    | y :: rest when y < x -> go (y :: acc) rest
    | y :: _ when y = x -> l
    | rest -> List.rev_append acc (x :: rest)
  in
  go [] l

(* [t]'s lists are already sorted and distinct, and its edges valid:
   only the chain pairs are checked, in [make]'s order and words, and
   merged in place of a re-sort of every edge. *)
let add_chains t chains =
  let n = t.n in
  let succs = Array.copy t.succs and preds = Array.copy t.preds in
  let rec pairs = function
    | a :: (b :: _ as rest) ->
      if a < 0 || a >= n || b < 0 || b >= n then invalid_arg "Dag.make: edge out of range";
      if a = b then invalid_arg "Dag.make: self loop";
      succs.(a) <- insert b succs.(a);
      preds.(b) <- insert a preds.(b);
      pairs rest
    | [ _ ] | [] -> ()
  in
  Array.iter pairs chains;
  { t with labels = None; succs; preds; order = kahn ~preds ~succs }

let topological_order t = Array.copy t.order

let total_weight t = Es_util.Futil.sum t.weights
let is_edge t i j = List.mem j t.succs.(i)

let map_weights t f =
  { t with weights = Array.mapi (fun i w -> f i w) t.weights }

(* The start and finish bounds fold over the stored order and over each
   task's predecessors (or successors) in list order, in float refs, so
   no step boxes a float. *)
let earliest_start t ~durations =
  assert (Array.length durations = t.n);
  let es = Array.make t.n 0. in
  for k = 0 to t.n - 1 do
    let i = t.order.(k) in
    let start = ref 0. and preds = ref t.preds.(i) in
    while
      match !preds with
      | [] -> false
      | p :: rest ->
        start := Float.max !start (es.(p) +. durations.(p));
        preds := rest;
        true
    do
      ()
    done;
    es.(i) <- !start
  done;
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
  let ls = Array.make t.n 0. in
  for k = t.n - 1 downto 0 do
    let i = t.order.(k) in
    let latest_finish = ref deadline and succs = ref t.succs.(i) in
    while
      match !succs with
      | [] -> false
      | s :: rest ->
        latest_finish := Float.min !latest_finish ls.(s);
        succs := rest;
        true
    do
      ()
    done;
    ls.(i) <- !latest_finish -. durations.(i)
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
     by depth and keeps windows shorter than the smallest-id order
     stored in [t] *)
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
    (* The order carries over: every dropped predecessor of a task is
       an ancestor of a kept one, so Kahn's pass makes each task ready
       at the same step on both graphs. *)
    { t with succs; preds }
  end

let reverse t =
  let edges = List.map (fun (i, j) -> (j, i)) (edges t) in
  make ?labels:t.labels ~weights:t.weights ~edges

let pp ppf t =
  for i = 0 to t.n - 1 do
    Format.fprintf ppf "%s (w=%g) -> %s@."
      (label t i) t.weights.(i)
      (String.concat ", " (List.map (label t) t.succs.(i)))
  done
