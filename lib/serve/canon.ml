(* Canonical labeling by colour refinement (1-WL) over the task graph
   and the processor chains, with individualization-refinement on tied
   colour classes.  Colours are dense int ranks, and every ingredient
   of a colour is itself canonical (rounded normalized weights,
   degrees, chain ranks, previously computed colours), so the resulting
   labeling — and hence the binary keys — is invariant under any
   relabeling of tasks or processors. *)

module Obs = Es_obs.Obs

type t = {
  perm : int array;
  exact_key : string;
  scaled_key : string option;
  total_work : float;
}

let c_budget = Obs.counter "serve.canon.budget_exhausted"

exception Budget
(* Raised when the refinement budget is exhausted; caught at the top of
   [of_instance], which then keeps the best leaf found so far. *)

(* Significant bits kept of a normalized weight in the weight classes
   and the scaled key. *)
let grid_bits = 38

let round_to_grid x =
  let m, e = Float.frexp x in
  Float.ldexp (Float.round (Float.ldexp m grid_bits)) (e - grid_bits)

(* Dense ranks (0..k-1) of the items 0..n-1 under the total order
   [cmp]; equal items share a rank. *)
let rank_by n cmp =
  let idx = Array.init n Fun.id in
  Array.stable_sort cmp idx;
  let ranks = Array.make n 0 in
  let r = ref 0 in
  for k = 1 to n - 1 do
    if cmp idx.(k - 1) idx.(k) <> 0 then incr r;
    ranks.(idx.(k)) <- !r
  done;
  ranks

let n_classes colors = Array.fold_left (fun m x -> max m x) (-1) colors + 1

(* Lexicographic order of a.(ia .. ia+la-1) against b.(ib .. ib+lb-1). *)
let rec cmp_run (a : int array) ia la (b : int array) ib lb =
  if la = 0 || lb = 0 then Int.compare la lb
  else
    let c = Int.compare a.(ia) b.(ib) in
    if c <> 0 then c else cmp_run a (ia + 1) (la - 1) b (ib + 1) (lb - 1)

(* Lexicographic order of two arrays under [cmp]. *)
let lex cmp a b =
  let la = Array.length a and lb = Array.length b in
  let rec go i =
    if i >= la || i >= lb then Int.compare la lb
    else
      let c = cmp a.(i) b.(i) in
      if c <> 0 then c else go (i + 1)
  in
  go 0

(* Sort a.(lo .. lo+len-1) in place: insertion sort for the short runs
   of a typical degree, the library sort beyond. *)
let sort_run (a : int array) lo len =
  if len <= 16 then
    for k = lo + 1 to lo + len - 1 do
      let x = a.(k) in
      let j = ref (k - 1) in
      while !j >= lo && a.(!j) > x do
        a.(!j + 1) <- a.(!j);
        decr j
      done;
      a.(!j + 1) <- x
    done
  else begin
    let s = Array.sub a lo len in
    Array.sort Int.compare s;
    Array.blit s 0 a lo len
  end

(* A discrete leaf of the search, in canonical positions: what two
   leaves are ranked by, lowest first, and what the keys encode. *)
type leaf = {
  l_perm : int array;
  l_inv : int array;  (* task at each position *)
  l_class : int array;  (* weight class by position *)
  l_edges : int array;  (* sorted distinct edges a·n + b *)
  l_chains : int array array;  (* relabeled chains, sorted *)
  l_weights : float array;  (* exact weight by position *)
}

let cmp_leaf x y =
  let c = lex Int.compare x.l_class y.l_class in
  if c <> 0 then c
  else
    let c = lex Int.compare x.l_edges y.l_edges in
    if c <> 0 then c
    else
      let c = lex (lex Int.compare) x.l_chains y.l_chains in
      if c <> 0 then c else lex Float.compare x.l_weights y.l_weights

(* Keys are length-prefixed binary: every int at 64 bits, every float
   as its 64 bits, so a key decodes back to what it encodes. *)
let add_int b x = Buffer.add_int64_le b (Int64.of_int x)
let add_float b x = Buffer.add_int64_le b (Int64.bits_of_float x)

let add_floats b xs =
  add_int b (Array.length xs);
  Array.iter (add_float b) xs

let add_model b = function
  | Speed.Continuous { fmin; fmax } ->
    add_int b 0;
    add_float b fmin;
    add_float b fmax
  | Speed.Discrete levels ->
    add_int b 1;
    add_floats b levels
  | Speed.Vdd_hopping levels ->
    add_int b 2;
    add_floats b levels
  | Speed.Incremental { fmin; fmax; delta } ->
    add_int b 3;
    add_float b fmin;
    add_float b fmax;
    add_float b delta

let add_rel b = function
  | None -> add_int b 0
  | Some (r : Rel.params) ->
    add_int b 1;
    List.iter (add_float b) [ r.lambda0; r.sensitivity; r.fmin; r.fmax; r.frel ]

let of_instance ~order (inst : Protocol.instance) =
  let n = Array.length inst.weights in
  let p = Array.length order in
  (* Sum in sorted order: float addition is not associative, so a
     label-order sum would differ in the last bits between relabelings
     of the same instance and split the exact key. *)
  let total_work =
    let w = Array.copy inst.weights in
    Array.sort Float.compare w;
    Array.fold_left ( +. ) 0. w
  in
  let rounded = Array.map (fun w -> round_to_grid (w /. total_work)) inst.weights in
  let wclass = rank_by n (fun a b -> Float.compare rounded.(a) rounded.(b)) in
  (* -- relations ---------------------------------------------------- *)
  let succs = Array.make n [] and preds = Array.make n [] in
  List.iter
    (fun (a, b) ->
      succs.(a) <- b :: succs.(a);
      preds.(b) <- a :: preds.(b))
    inst.edges;
  let distinct l = Array.of_list (List.sort_uniq Int.compare l) in
  let succs = Array.map distinct succs and preds = Array.map distinct preds in
  let pnext = Array.make n (-1) and pprev = Array.make n (-1) in
  let chain_rank = Array.make n 0 in
  Array.iter
    (fun chain ->
      let rec go pos prev = function
        | [] -> ()
        | a :: rest ->
          chain_rank.(a) <- pos;
          if prev >= 0 then begin
            pnext.(prev) <- a;
            pprev.(a) <- prev
          end;
          go (pos + 1) a rest
      in
      go 0 (-1) chain)
    order;
  (* -- leaves ------------------------------------------------------- *)
  let leaf_of perm =
    let inv = Array.make n 0 in
    Array.iteri (fun i c -> inv.(c) <- i) perm;
    (* edge (a, b) as a·n + b: sorting the codes sorts the pairs *)
    let l_edges =
      Array.of_list
        (List.sort_uniq Int.compare
           (List.map (fun (a, b) -> (perm.(a) * n) + perm.(b)) inst.edges))
    in
    (* processors are interchangeable: sort the relabeled chains *)
    let l_chains =
      Array.map (fun chain -> Array.of_list (List.map (fun t -> perm.(t)) chain)) order
    in
    Array.sort (lex Int.compare) l_chains;
    {
      l_perm = perm;
      l_inv = inv;
      l_class = Array.map (fun i -> wclass.(i)) inv;
      l_edges;
      l_chains;
      l_weights = Array.map (fun i -> inst.weights.(i)) inv;
    }
  in
  let best = ref None in
  let consider perm =
    let leaf = leaf_of perm in
    match !best with
    | Some b when cmp_leaf leaf b >= 0 -> ()
    | Some _ | None -> best := Some leaf
  in
  (* -- colour refinement + individualization search ------------------ *)
  (* A task's signature is (own colour, sorted successor colours,
     sorted predecessor colours, next colour on its chain, previous
     colour on its chain), stored at [off.(i)] of one flat buffer.
     Equal colours imply equal degrees (the initial colour holds
     them), so two signatures compare lexicographically as flat runs. *)
  let off = Array.make n 0 and len = Array.make n 0 in
  let total = ref 0 in
  for i = 0 to n - 1 do
    off.(i) <- !total;
    len.(i) <- 3 + Array.length succs.(i) + Array.length preds.(i);
    total := !total + len.(i)
  done;
  let sg = Array.make !total 0 in
  let by_signature a b = cmp_run sg off.(a) len.(a) sg off.(b) len.(b) in
  let neighbour_colour colors j = if j >= 0 then colors.(j) else -1 in
  (* [refine] and [search] live inside the [try] so the [Budget] raise
     is syntactically within its own handler (the effects analysis
     charges closure bodies at their definition point). *)
  let budget = ref 1000 in
  (try
     let refine colors0 =
       let colors = Array.copy colors0 in
       let stable = ref false in
       while not !stable do
         decr budget;
         if !budget < 0 then raise Budget;
         for i = 0 to n - 1 do
           let o = off.(i) and s = succs.(i) and pr = preds.(i) in
           let ns = Array.length s and np = Array.length pr in
           sg.(o) <- colors.(i);
           Array.iteri (fun k j -> sg.(o + 1 + k) <- colors.(j)) s;
           sort_run sg (o + 1) ns;
           Array.iteri (fun k j -> sg.(o + 1 + ns + k) <- colors.(j)) pr;
           sort_run sg (o + 1 + ns) np;
           sg.(o + 1 + ns + np) <- neighbour_colour colors pnext.(i);
           sg.(o + 2 + ns + np) <- neighbour_colour colors pprev.(i)
         done;
         let colors' = rank_by n by_signature in
         if n_classes colors' = n_classes colors then stable := true;
         Array.blit colors' 0 colors 0 n
       done;
       colors
     in
     let rec search colors =
       let colors = refine colors in
       let k = n_classes colors in
       if k = n then consider colors
       else begin
         (* smallest non-singleton class, lowest colour on ties *)
         let sizes = Array.make k 0 in
         Array.iter (fun c -> sizes.(c) <- sizes.(c) + 1) colors;
         let target = ref (-1) in
         for c = k - 1 downto 0 do
           if sizes.(c) >= 2 && (!target < 0 || sizes.(c) <= sizes.(!target))
           then target := c
         done;
         let t = !target in
         for m = 0 to n - 1 do
           if colors.(m) = t then begin
             (* split m off below the rest of its class, keeping the
                colours dense so that [refine]'s class count is exact:
                m takes t, the rest of its class and every colour
                above move up one *)
             let c' = Array.map (fun x -> if x < t then x else x + 1) colors in
             c'.(m) <- t;
             search c'
           end
         done
       end
     in
     search
       (rank_by n (fun a b ->
            let c = Int.compare wclass.(a) wclass.(b) in
            if c <> 0 then c
            else
              let c = Int.compare (Array.length preds.(a)) (Array.length preds.(b)) in
              if c <> 0 then c
              else
                let c = Int.compare (Array.length succs.(a)) (Array.length succs.(b)) in
                if c <> 0 then c else Int.compare chain_rank.(a) chain_rank.(b)))
   with Budget -> Obs.incr c_budget);
  let leaf =
    match !best with
    | Some leaf -> leaf
    | None -> leaf_of (Array.init n Fun.id) (* budget blown before any leaf *)
  in
  (* -- keys, from the winning leaf ------------------------------------ *)
  let b = Buffer.create (8 * (8 + (3 * n) + (2 * Array.length leaf.l_edges) + p)) in
  add_int b n;
  add_int b p;
  Array.iter (fun i -> add_float b rounded.(i)) leaf.l_inv;
  add_int b (Array.length leaf.l_edges);
  Array.iter
    (fun e ->
      add_int b (e / n);
      add_int b (e mod n))
    leaf.l_edges;
  Array.iter
    (fun chain ->
      add_int b (Array.length chain);
      Array.iter (add_int b) chain)
    leaf.l_chains;
  let scaled_key =
    match (inst.model, inst.rel) with
    | Speed.Continuous _, None -> Some (Buffer.contents b)
    | _ -> None
  in
  Array.iter (add_float b) leaf.l_weights;
  add_float b total_work;
  add_model b inst.model;
  add_float b inst.deadline;
  add_rel b inst.rel;
  { perm = leaf.l_perm; exact_key = Buffer.contents b; scaled_key; total_work }
