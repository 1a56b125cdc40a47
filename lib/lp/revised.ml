type outcome =
  | Optimal of { objective : float; solution : float array; duals : float array }
  | Infeasible
  | Unbounded

type basis = int array

let basis_of_columns columns = Array.copy columns

module Obs = Es_obs.Obs

(* Shared names with the dense reference ([Obs.counter] find-or-creates
   by name), so `esched --stats` keeps reporting "simplex_pivots"
   whichever core ran. *)
let c_pivots = Obs.counter "simplex_pivots"
let c_degenerate = Obs.counter "simplex_degenerate_pivots"
let c_phase1_pivots = Obs.counter "simplex_phase1_pivots"
let c_phase2_pivots = Obs.counter "simplex_phase2_pivots"
let c_dual_pivots = Obs.counter "simplex_dual_pivots"
let c_refactor = Obs.counter "simplex_refactorizations"
let c_warm = Obs.counter "lp_warm_starts"
let c_warm_fallback = Obs.counter "lp_warm_cold_fallbacks"
let t_phase1 = Obs.timer "simplex_phase1"
let t_phase2 = Obs.timer "simplex_phase2"

let dual_tol = 1e-9
let ratio_eps = 1e-10
let feas_tol = 1e-9
let art_tol = 1e-7

(* Pivots one phase (or one dual simplex run) may take before the solve
   gives up with [Failure]. *)
let max_iters = 200_000

(* Columns 0..n_cols-1 come from the sparse problem; n_cols..n_cols+m-1
   are virtual artificials: the unit column sign(b_i)·e_i for row
   i = j − n_cols.  The sign follows the current right-hand side so a
   phase-1 artificial starts at |b_i| ≥ 0; it is never materialised in
   the CSC arrays.  Every array a pivot touches is allocated here once
   per solver and kept across its re-solves, the factors and eta file
   included. *)
type t = {
  sp : Sparse.t; (* the columns and objective every re-solve shares *)
  m : int;
  n_cols : int;
  n_struct : int;
  col_ptr : int array;
  row_idx : int array;
  col_val : float array;
  bland_after : int;
  refactor_every : int;
  b : float array; (* the current right-hand side *)
  art_sign : float array; (* read by [lu] at every refactorisation *)
  basis : int array; (* per position: its basic column *)
  in_basis : bool array; (* length n_cols + m *)
  lu : Lu.t;
  mutable fresh : bool;
      (* [basis] is not factorised: the next re-solve factorises it, or
         starts cold if it is not a nonsingular basis *)
  mutable factorizations : int; (* bumped by every refactor *)
  xb : float array; (* basic values, position space *)
  cost : float array; (* current phase costs, length n_cols + m *)
  mutable price_from : int; (* partial-pricing rotation pointer *)
  d : float array; (* phase-2 reduced costs, length n_cols *)
  mutable priced_at : int;
      (* [factorizations] when [d] was last priced from scratch, or -1
         when [d] is not the current basis's *)
  alpha_row : float array; (* the dual simplex's pivot row, length n_cols *)
  (* kernel buffers *)
  scatter : float array; (* row space: ftran input, consumed *)
  w : float array; (* position space: B⁻¹ a_j of the entering column *)
  cb : float array; (* position space: btran input, consumed *)
  y : float array; (* row space: btran output, duals or a row of B⁻¹ *)
}

(* v · a_j for a real column; inlined so the sum stays unboxed *)
let[@inline] col_dot st j v =
  let acc = ref 0. in
  for k = st.col_ptr.(j) to st.col_ptr.(j + 1) - 1 do
    acc := !acc +. (v.(st.row_idx.(k)) *. st.col_val.(k))
  done;
  !acc

(* w = B⁻¹ a_j, dense in position space *)
let ftran_col st j =
  Array.fill st.scatter 0 st.m 0.;
  if j < st.n_cols then
    for k = st.col_ptr.(j) to st.col_ptr.(j + 1) - 1 do
      let i = st.row_idx.(k) in
      st.scatter.(i) <- st.scatter.(i) +. st.col_val.(k)
    done
  else begin
    let i = j - st.n_cols in
    st.scatter.(i) <- st.art_sign.(i)
  end;
  Lu.ftran st.lu st.scatter st.w

(* y = B⁻ᵀ c_B: the simplex multipliers of the current phase *)
let btran_costs st y =
  for k = 0 to st.m - 1 do
    st.cb.(k) <- st.cost.(st.basis.(k))
  done;
  Lu.btran st.lu st.cb y

(* y = B⁻ᵀ e_p: row p of B⁻¹ *)
let btran_unit st p =
  Array.fill st.cb 0 st.m 0.;
  st.cb.(p) <- 1.;
  Lu.btran st.lu st.cb st.y

let basic_values st =
  Array.blit st.b 0 st.scatter 0 st.m;
  Lu.ftran st.lu st.scatter st.xb

let refactor st =
  Obs.incr c_refactor;
  (match Lu.refactor st.lu st.basis with
  | () -> ()
  | exception Lu.Singular ->
    failwith "Lp.Revised: basis became singular during pivoting");
  st.factorizations <- st.factorizations + 1;
  basic_values st

(* Swap column [j] into position [p] at primal step [theta] along
   [st.w = B⁻¹ a_j]. *)
let apply_pivot st ~p ~j ~theta =
  for k = 0 to st.m - 1 do
    let v = st.xb.(k) -. (theta *. st.w.(k)) in
    st.xb.(k) <- (if Float.abs v < 1e-12 then 0. else v)
  done;
  st.xb.(p) <- theta;
  st.in_basis.(st.basis.(p)) <- false;
  st.in_basis.(j) <- true;
  st.basis.(p) <- j;
  if Lu.n_updates st.lu + 1 >= st.refactor_every then refactor st
  else
    match Lu.update st.lu ~pos:p ~w:st.w with
    | () -> ()
    | exception Lu.Unstable -> refactor st

(* Partial Dantzig pricing against the multipliers in [st.y]: on wide
   problems, scan rotating 512-column windows and take the most
   negative reduced cost in the first window that has one; a full
   fruitless rotation means optimal.  Narrow problems get the plain
   full Dantzig scan. *)
let partial_threshold = 2048
let price_window = 512

let entering_dantzig st =
  let n = st.n_cols in
  let best = ref (-1) and best_v = ref (-.dual_tol) in
  if n <= partial_threshold then
    for j = 0 to n - 1 do
      if not st.in_basis.(j) then begin
        let d = st.cost.(j) -. col_dot st j st.y in
        if d < !best_v then begin
          best := j;
          best_v := d
        end
      end
    done
  else begin
    let pos = ref st.price_from and remaining = ref n in
    while !best < 0 && !remaining > 0 do
      let chunk = min price_window !remaining in
      for t = 0 to chunk - 1 do
        let j = (!pos + t) mod n in
        if not st.in_basis.(j) then begin
          let d = st.cost.(j) -. col_dot st j st.y in
          if d < !best_v then begin
            best := j;
            best_v := d
          end
        end
      done;
      pos := (!pos + chunk) mod n;
      remaining := !remaining - chunk
    done;
    if !best >= 0 then st.price_from <- (!best + 1) mod n
  end;
  !best

let entering_bland st =
  let found = ref (-1) in
  (try
     for j = 0 to st.n_cols - 1 do
       if not st.in_basis.(j) then begin
         let d = st.cost.(j) -. col_dot st j st.y in
         if d < -.dual_tol then begin
           found := j;
           raise Exit
         end
       end
     done
   with Exit -> ());
  !found

(* Leaving position for the entering direction [st.w]; Bland tie-break
   on the basic column index for termination.  A zero-level basic
   artificial with w_k < 0 would drift positive (silently leaving the
   feasible region of the real LP), so it is forced out at θ = 0. *)
let ratio_test st =
  let p = ref (-1) and best = ref infinity in
  let consider k r =
    if
      r < !best -. ratio_eps
      || (Float.abs (r -. !best) <= ratio_eps
         && !p >= 0
         && st.basis.(k) < st.basis.(!p))
    then begin
      best := r;
      p := k
    end
  in
  for k = 0 to st.m - 1 do
    let wk = st.w.(k) in
    if wk > ratio_eps then begin
      let num = if st.xb.(k) > 0. then st.xb.(k) else 0. in
      consider k (num /. wk)
    end
    else if
      st.basis.(k) >= st.n_cols
      && wk < -.ratio_eps
      && Float.abs st.xb.(k) <= feas_tol
    then consider k 0.
  done;
  (!p, !best)

(* Primal simplex on the current phase's costs.  A pivot leaves [d]
   stale: only the dual simplex keeps it up to date. *)
let optimise st ~phase_pivots =
  let iters = ref 0 in
  let rec loop () =
    if !iters > max_iters then
      failwith "Lp.Revised: iteration limit exceeded";
    incr iters;
    btran_costs st st.y;
    let j =
      if !iters < st.bland_after then entering_dantzig st else entering_bland st
    in
    if j < 0 then `Optimal
    else begin
      ftran_col st j;
      let p, theta = ratio_test st in
      if p < 0 then `Unbounded
      else begin
        Obs.incr c_pivots;
        Obs.incr phase_pivots;
        if theta <= ratio_eps then Obs.incr c_degenerate;
        st.priced_at <- -1;
        apply_pivot st ~p ~j ~theta;
        loop ()
      end
    end
  in
  loop ()

(* After phase 1, swap any zero-level basic artificial for a real
   column with a nonzero pivot in its row; rows where none exists are
   redundant and keep their artificial pinned at zero. *)
let drive_out_artificials st =
  for p = 0 to st.m - 1 do
    if st.basis.(p) >= st.n_cols && Float.abs st.xb.(p) <= art_tol then begin
      btran_unit st p;
      let found = ref (-1) in
      (try
         for j = 0 to st.n_cols - 1 do
           if (not st.in_basis.(j)) && Float.abs (col_dot st j st.y) > art_tol
           then begin
             found := j;
             raise Exit
           end
         done
       with Exit -> ());
      if !found >= 0 then begin
        let j = !found in
        ftran_col st j;
        if Float.abs st.w.(p) > ratio_eps then begin
          let theta = st.xb.(p) /. st.w.(p) in
          apply_pivot st ~p ~j ~theta
        end
      end
    end
  done

let set_phase1_costs st =
  Array.fill st.cost 0 (st.n_cols + st.m) 0.;
  for i = 0 to st.m - 1 do
    st.cost.(st.n_cols + i) <- 1.
  done

(* Blitted rather than read column by column: without cross-module
   inlining (dune's dev profile) each float [Sparse.obj] returns is
   boxed, two minor-heap words per column at every solve. *)
let set_phase2_costs st =
  Sparse.blit_obj st.sp st.cost;
  Array.fill st.cost st.n_cols st.m 0.

let extract st =
  let solution = Array.make st.n_struct 0. in
  for k = 0 to st.m - 1 do
    let j = st.basis.(k) in
    if j < st.n_struct then
      solution.(j) <- (if st.xb.(k) < 0. then 0. else st.xb.(k))
  done;
  let objective = ref 0. in
  for k = 0 to st.m - 1 do
    objective := !objective +. (st.cost.(st.basis.(k)) *. st.xb.(k))
  done;
  let duals = Array.make st.m 0. in
  btran_costs st duals;
  Optimal { objective = !objective; solution; duals }

let phase1_objective st =
  let acc = ref 0. in
  for k = 0 to st.m - 1 do
    if st.basis.(k) >= st.n_cols then
      acc := !acc +. Float.max 0. st.xb.(k)
  done;
  !acc

(* A basic artificial at positive level means A x ≠ b at the current
   point, however non-negative the basic values look. *)
let artificials_at_zero st =
  let ok = ref true in
  for k = 0 to st.m - 1 do
    if st.basis.(k) >= st.n_cols && Float.abs st.xb.(k) > art_tol then
      ok := false
  done;
  !ok

let primal_feasible st =
  let ok = ref true in
  for k = 0 to st.m - 1 do
    if st.xb.(k) < -.feas_tol then ok := false
  done;
  !ok && artificials_at_zero st

(* d_j = c_j − y·a_j from scratch for every real column (0 on basic
   ones); the dual simplex keeps [d] up to date between pricings. *)
let reduced_costs st =
  btran_costs st st.y;
  for j = 0 to st.n_cols - 1 do
    st.d.(j) <-
      (if st.in_basis.(j) then 0. else st.cost.(j) -. col_dot st j st.y)
  done;
  st.priced_at <- st.factorizations

(* Whether every reduced cost is non-negative, the dual simplex's
   starting condition.  [d] is priced afresh unless the dual simplex
   left it up to date on this basis and factorisation. *)
let dual_feasible st =
  if st.priced_at <> st.factorizations then reduced_costs st;
  let ok = ref true in
  for j = 0 to st.n_cols - 1 do
    if st.d.(j) < -.art_tol then ok := false
  done;
  !ok

(* Dual simplex from a dual-feasible basis whose reduced costs are in
   [d]: drive out the most negative basic value while keeping
   reduced costs non-negative.  Each pivot makes one BTRAN for the
   pivot row ρ = B⁻ᵀe_p, computes α_j = ρ·a_j once per nonbasic column
   for both the ratio test and the update d_j ← d_j − θ_d·α_j, and
   recomputes d from scratch after every refactorisation.  Returns
   [`Feasible] once x_B ≥ 0, [`Infeasible] when the dual is unbounded
   (no entering column), or [`Stalled] on numerical trouble — the
   caller falls back to a cold solve.  Either way [d] stays the
   basis's reduced costs. *)
let dual_simplex st =
  let d = st.d and alpha_row = st.alpha_row in
  let iters = ref 0 and retried = ref false in
  let rec loop () =
    if !iters > max_iters then
      failwith "Lp.Revised: dual iteration limit exceeded";
    incr iters;
    if st.factorizations <> st.priced_at then reduced_costs st;
    let p = ref (-1) and most = ref (-.feas_tol) in
    for k = 0 to st.m - 1 do
      if st.xb.(k) < !most then begin
        most := st.xb.(k);
        p := k
      end
    done;
    if !p < 0 then `Feasible
    else begin
      let p = !p in
      btran_unit st p;
      let je = ref (-1) and best = ref infinity in
      for j = 0 to st.n_cols - 1 do
        if not st.in_basis.(j) then begin
          let alpha = col_dot st j st.y in
          alpha_row.(j) <- alpha;
          if alpha < -.dual_tol then begin
            let dj = d.(j) in
            let r = (if dj > 0. then dj else 0.) /. -.alpha in
            if r < !best -. 1e-12 || (r <= !best +. 1e-12 && !je >= 0 && j < !je)
            then begin
              best := r;
              je := j
            end
          end
        end
      done;
      if !je < 0 then `Infeasible
      else begin
        let j = !je in
        ftran_col st j;
        if Float.abs st.w.(p) <= 1e-11 then begin
          if !retried then `Stalled
          else begin
            retried := true;
            refactor st;
            loop ()
          end
        end
        else begin
          retried := false;
          (* dual step θ_d = d_j/α_j = −best; the leaving column's α is 1 *)
          let step = !best in
          for k = 0 to st.n_cols - 1 do
            if not st.in_basis.(k) then d.(k) <- d.(k) +. (step *. alpha_row.(k))
          done;
          d.(j) <- 0.;
          let leaving = st.basis.(p) in
          if leaving < st.n_cols then d.(leaving) <- step;
          let theta = st.xb.(p) /. st.w.(p) in
          Obs.incr c_pivots;
          Obs.incr c_dual_pivots;
          apply_pivot st ~p ~j ~theta;
          loop ()
        end
      end
    end
  in
  loop ()

(* Phase 2 from a primal-feasible state; assumes costs are set. *)
let finish_phase2 st =
  match
    Obs.time t_phase2 (fun () -> optimise st ~phase_pivots:c_phase2_pivots)
  with
  | `Unbounded -> (Unbounded, None)
  | `Optimal -> (extract st, Some (Array.copy st.basis))

(* Marks [basis]'s columns in [in_basis]; false if it names a column
   twice or one outside [0 .. n_cols + m − 1]. *)
let mark_basis st =
  Array.fill st.in_basis 0 (st.n_cols + st.m) false;
  Array.for_all
    (fun j ->
      j >= 0
      && j < st.n_cols + st.m
      && (not st.in_basis.(j))
      &&
      (st.in_basis.(j) <- true;
       true))
    st.basis

(* The cold two-phase solve at the current right-hand side, from the
   basis that is slack where the slack is feasible at this rhs (≤ with
   b ≥ 0, ≥ with b ≤ 0) and artificial otherwise: B is diagonal ±1. *)
let cold st =
  let sp = st.sp in
  for i = 0 to st.m - 1 do
    let sc = Sparse.slack_col sp i in
    st.basis.(i) <-
      (if sc < 0 then st.n_cols + i
       else begin
         let sigma =
           match Sparse.row_relation sp i with
           | Sparse.Le -> 1.
           | Sparse.Ge -> -1.
           | Sparse.Eq -> 0.
         in
         if sigma *. st.b.(i) >= 0. then sc else st.n_cols + i
       end)
  done;
  ignore (mark_basis st : bool);
  Lu.refactor st.lu st.basis;
  st.price_from <- 0;
  st.priced_at <- -1;
  basic_values st;
  let needs_phase1 = Array.exists (fun j -> j >= st.n_cols) st.basis in
  let infeasible = ref false in
  if needs_phase1 then begin
    set_phase1_costs st;
    (match
       Obs.time t_phase1 (fun () -> optimise st ~phase_pivots:c_phase1_pivots)
     with
    | `Unbounded -> failwith "Lp.Revised: phase-1 objective unbounded"
    | `Optimal -> ());
    if phase1_objective st > art_tol then infeasible := true
    else drive_out_artificials st
  end;
  if !infeasible then (Infeasible, None)
  else begin
    set_phase2_costs st;
    finish_phase2 st
  end

let fallback st =
  Obs.incr c_warm_fallback;
  cold st

(* Re-optimise from a factorised basis whose basic values are those
   of the current right-hand side: phase 2 if it is primal feasible,
   the dual simplex if it is dual feasible, a cold solve otherwise. *)
let warm st =
  Obs.incr c_warm;
  st.price_from <- 0;
  set_phase2_costs st;
  if primal_feasible st then finish_phase2 st
  else if not (dual_feasible st) then fallback st
  else
    match dual_simplex st with
    | `Infeasible -> (Infeasible, None)
    | `Stalled -> fallback st
    | `Feasible ->
      if artificials_at_zero st then finish_phase2 st else fallback st

(* Copies [sp]'s right-hand side in and the artificials' signs with
   it; true when a basic artificial changed sign, so that the factors
   no longer describe the basis. *)
let load_rhs st sp =
  Sparse.blit_rhs sp st.b;
  let flipped = ref false in
  for i = 0 to st.m - 1 do
    let sign = if st.b.(i) >= 0. then 1. else -1. in
    if sign <> st.art_sign.(i) then begin
      st.art_sign.(i) <- sign;
      if st.in_basis.(st.n_cols + i) then flipped := true
    end
  done;
  !flipped

let default_bland_after = 20_000
let default_refactor_every = 64

let create ?(bland_after = default_bland_after)
    ?(refactor_every = default_refactor_every) sp =
  let m = Sparse.m sp and n_cols = Sparse.n_cols sp in
  let art_sign = Array.make m 1. in
  {
    sp;
    m;
    n_cols;
    n_struct = Sparse.n_struct sp;
    col_ptr = Sparse.col_ptr sp;
    row_idx = Sparse.row_idx sp;
    col_val = Sparse.col_val sp;
    bland_after;
    refactor_every;
    b = Array.make m 0.;
    art_sign;
    basis = Array.make m (-1);
    in_basis = Array.make (n_cols + m) false;
    lu = Lu.create sp ~art_sign;
    fresh = true;
    factorizations = 0;
    xb = Array.make m 0.;
    cost = Array.make (n_cols + m) 0.;
    price_from = 0;
    d = Array.make n_cols 0.;
    priced_at = -1;
    alpha_row = Array.make n_cols 0.;
    scatter = Array.make m 0.;
    w = Array.make m 0.;
    cb = Array.make m 0.;
    y = Array.make m 0.;
  }

let solve ?bland_after ?refactor_every sp =
  let st = create ?bland_after ?refactor_every sp in
  ignore (load_rhs st sp : bool);
  cold st

let start basis sp =
  let st = create sp in
  (* a basis of the wrong length stays all −1: not a basis *)
  if Array.length basis = st.m then Array.blit basis 0 st.basis 0 st.m;
  st

let resolve st sp =
  if not (Sparse.same_columns st.sp sp) then
    invalid_arg "Revised.resolve: the problem's columns are not the solver's";
  let flipped = load_rhs st sp in
  let fresh = st.fresh in
  (* until this re-solve returns: one that raises leaves its basis to
     be factorised again *)
  st.fresh <- true;
  let result =
    if not fresh then begin
      if flipped then refactor st else basic_values st;
      warm st
    end
    else if
      mark_basis st
      &&
      match Lu.refactor st.lu st.basis with
      | () -> true
      | exception Lu.Singular -> false
    then begin
      st.priced_at <- -1;
      basic_values st;
      warm st
    end
    else fallback st
  in
  st.fresh <- false;
  result

let solve_from basis sp = resolve (start basis sp) sp
