type relation = Es_lp.Sparse.relation = Le | Eq | Ge

type constr = Es_lp.Sparse.constr = {
  coeffs : float array;
  relation : relation;
  rhs : float;
}

type outcome = Es_lp.Revised.outcome =
  | Optimal of { objective : float; solution : float array; duals : float array }
  | Infeasible
  | Unbounded

let eps = 1e-9

(* Tableau layout: columns 0..n_struct-1 structural, then one
   slack/surplus column per inequality row, then one artificial column
   per row needing one.  Row [i] of [tab] stores the coefficients of
   basic-feasible row [i]; [rhs.(i)] its right-hand side; [basis.(i)]
   the index of its basic column. *)
type tableau = {
  tab : float array array;
  rhs : float array;
  basis : int array;
  n_rows : int;
  n_cols : int;
}

let pivot t ~row ~col =
  let p = t.tab.(row).(col) in
  let trow = t.tab.(row) in
  let inv = 1. /. p in
  for j = 0 to t.n_cols - 1 do
    trow.(j) <- trow.(j) *. inv
  done;
  t.rhs.(row) <- t.rhs.(row) *. inv;
  for i = 0 to t.n_rows - 1 do
    if i <> row then begin
      let factor = t.tab.(i).(col) in
      if factor <> 0. then begin
        let ti = t.tab.(i) in
        for j = 0 to t.n_cols - 1 do
          ti.(j) <- ti.(j) -. (factor *. trow.(j))
        done;
        t.rhs.(i) <- t.rhs.(i) -. (factor *. t.rhs.(row))
      end
    end
  done;
  t.basis.(row) <- col

(* Reduced costs for objective [c] (length n_cols) given the current
   basis: z_j - c_j computed by pricing out the basic rows. *)
let reduced_costs t c =
  let red = Array.copy c in
  for i = 0 to t.n_rows - 1 do
    let cb = c.(t.basis.(i)) in
    if cb <> 0. then begin
      let ti = t.tab.(i) in
      for j = 0 to t.n_cols - 1 do
        red.(j) <- red.(j) -. (cb *. ti.(j))
      done
    end
  done;
  red

let objective_value t c =
  let acc = ref 0. in
  for i = 0 to t.n_rows - 1 do
    acc := !acc +. (c.(t.basis.(i)) *. t.rhs.(i))
  done;
  !acc

let max_iters = 200_000
let bland_after = 20_000

(* One simplex phase: minimise c over the current tableau.  [allowed j]
   restricts entering columns (used to bar artificials in phase 2).
   Returns [`Optimal] or [`Unbounded].  Switches from Dantzig to
   Bland's rule after [bland_after] pivots to escape cycling. *)
let optimise t c allowed =
  let iters = ref 0 in
  let rec loop () =
    if !iters > max_iters then failwith "Dense_simplex.solve: iteration limit exceeded";
    incr iters;
    let red = reduced_costs t c in
    let entering =
      if !iters < bland_after then begin
        (* Dantzig: most negative reduced cost *)
        let best = ref (-1) and best_val = ref (-.eps) in
        for j = 0 to t.n_cols - 1 do
          if allowed j && red.(j) < !best_val then begin
            best := j;
            best_val := red.(j)
          end
        done;
        !best
      end
      else begin
        (* Bland: smallest index with negative reduced cost *)
        let found = ref (-1) in
        (try
           for j = 0 to t.n_cols - 1 do
             if allowed j && red.(j) < -.eps then begin
               found := j;
               raise Exit
             end
           done
         with Exit -> ());
        !found
      end
    in
    if entering < 0 then `Optimal
    else begin
      (* ratio test; Bland tie-break on basis index for termination.  A
         pivot must be above [eps] relative to the column's largest
         entry, and a right-hand side below 0 by rounding counts as 0:
         a pivot of 1e-9 next to entries of 1e3 would scale rounding
         errors into an infeasible basis *)
      let tiny = ref eps in
      for i = 0 to t.n_rows - 1 do
        tiny := Float.max !tiny (eps *. t.tab.(i).(entering))
      done;
      let row = ref (-1) and best_ratio = ref infinity in
      for i = 0 to t.n_rows - 1 do
        let a = t.tab.(i).(entering) in
        if a > !tiny then begin
          let ratio = Float.max 0. t.rhs.(i) /. a in
          if
            ratio < !best_ratio -. eps
            || (Float.abs (ratio -. !best_ratio) <= eps
               && !row >= 0
               && t.basis.(i) < t.basis.(!row))
          then begin
            best_ratio := ratio;
            row := i
          end
        end
      done;
      if !row < 0 then `Unbounded
      else begin
        pivot t ~row:!row ~col:entering;
        loop ()
      end
    end
  in
  loop ()

(* Both phases; raises [Exit] when phase 1 ends with positive
   artificial mass, which [solve] reports as [Infeasible]. *)
let two_phase ~obj constraints =
  let n_struct = Array.length obj in
  let rows = Array.of_list constraints in
  let m = Array.length rows in
  Array.iter (fun r -> assert (Array.length r.coeffs = n_struct)) rows;
  (* Normalise to b >= 0 by flipping rows; remember the flip so duals
     can be reported against the caller's original rows. *)
  let flipped = Array.map (fun (r : constr) -> r.rhs < 0.) rows in
  let rows =
    Array.map
      (fun (r : constr) ->
        if r.rhs < 0. then
          {
            coeffs = Array.map (fun v -> -.v) r.coeffs;
            rhs = -.r.rhs;
            relation = (match r.relation with Le -> Ge | Ge -> Le | Eq -> Eq);
          }
        else r)
      rows
  in
  (* Column layout. *)
  let n_slack = Array.fold_left (fun acc r -> match r.relation with Eq -> acc | Le | Ge -> acc + 1) 0 rows in
  (* A ≤-row with b ≥ 0 gets a slack that can serve as initial basis; a
     ≥-row or =-row needs an artificial. *)
  let needs_artificial r = match r.relation with Le -> false | Ge | Eq -> true in
  let n_art = Array.fold_left (fun acc r -> if needs_artificial r then acc + 1 else acc) 0 rows in
  let n_cols = n_struct + n_slack + n_art in
  let tab = Array.init m (fun _ -> Array.make n_cols 0.) in
  let rhs = Array.make m 0. in
  let basis = Array.make m (-1) in
  let slack_idx = ref n_struct and art_idx = ref (n_struct + n_slack) in
  (* per row: the unit column whose reduced cost prices the row's dual,
     and the sign mapping that reduced cost to y_i (A_col = sign·e_i ⇒
     y_i = −sign·red_col) *)
  let dual_col = Array.make m (-1) in
  let dual_sign = Array.make m 1. in
  Array.iteri
    (fun i r ->
      Array.blit r.coeffs 0 tab.(i) 0 n_struct;
      rhs.(i) <- r.rhs;
      (match r.relation with
      | Le ->
        tab.(i).(!slack_idx) <- 1.;
        basis.(i) <- !slack_idx;
        dual_col.(i) <- !slack_idx;
        dual_sign.(i) <- 1.;
        incr slack_idx
      | Ge ->
        tab.(i).(!slack_idx) <- -1.;
        dual_col.(i) <- !slack_idx;
        dual_sign.(i) <- -1.;
        incr slack_idx
      | Eq -> ());
      if needs_artificial r then begin
        tab.(i).(!art_idx) <- 1.;
        basis.(i) <- !art_idx;
        if r.relation = Eq then begin
          dual_col.(i) <- !art_idx;
          dual_sign.(i) <- 1.
        end;
        incr art_idx
      end)
    rows;
  let t = { tab; rhs; basis; n_rows = m; n_cols } in
  let art_start = n_struct + n_slack in
  (* Phase 1. *)
  if n_art > 0 then begin
    let c1 = Array.init n_cols (fun j -> if j >= art_start then 1. else 0.) in
    (match optimise t c1 (fun _ -> true) with
    | `Unbounded -> assert false (* phase-1 objective is bounded below by 0 *)
    | `Optimal -> ());
    if objective_value t c1 > 1e-7 then raise Exit
  end;
  (* Drive any artificial still basic (at zero level) out of the basis
     when possible; rows where it is impossible are redundant. *)
  for i = 0 to m - 1 do
    if t.basis.(i) >= art_start then begin
      let found = ref (-1) in
      (try
         for j = 0 to art_start - 1 do
           if Float.abs t.tab.(i).(j) > eps then begin
             found := j;
             raise Exit
           end
         done
       with Exit -> ());
      if !found >= 0 then pivot t ~row:i ~col:!found
    end
  done;
  (* Phase 2: bar artificial columns. *)
  let c2 = Array.init n_cols (fun j -> if j < n_struct then obj.(j) else 0.) in
  match optimise t c2 (fun j -> j < art_start) with
  | `Unbounded -> Unbounded
  | `Optimal ->
    let solution = Array.make n_struct 0. in
    for i = 0 to m - 1 do
      if t.basis.(i) < n_struct then solution.(t.basis.(i)) <- t.rhs.(i)
    done;
    (* duals: y_i = −sign·red(unit column of row i), flipped back when
       the row was normalised *)
    let red = reduced_costs t c2 in
    let duals =
      Array.init m (fun i ->
          if dual_col.(i) < 0 then 0.
          else begin
            let y = -.dual_sign.(i) *. red.(dual_col.(i)) in
            if flipped.(i) then -.y else y
          end)
    in
    Optimal { objective = objective_value t c2; solution; duals }

let solve ~obj constraints =
  match two_phase ~obj constraints with
  | outcome -> outcome
  | exception Exit -> Infeasible
