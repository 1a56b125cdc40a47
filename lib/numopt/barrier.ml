type rows = { row_ptr : int array; col_idx : int array; value : float array }

type objective = {
  f : float array -> float;
  grad : float array -> float array;
  hess : float array -> float array;
}

exception Not_strictly_feasible

module Obs = Es_obs.Obs

let c_centering = Obs.counter "barrier_centering_steps"
let c_newton = Obs.counter "barrier_newton_iters"
let c_line_search = Obs.counter "barrier_line_search_evals"
let c_shifted = Obs.counter "barrier_shifted_factors"
let c_cap_hit = Obs.counter "barrier_newton_cap_hits"
let t_minimize = Obs.timer "barrier_minimize"

let n_rows a = Array.length a.row_ptr - 1

let dot x y =
  assert (Array.length x = Array.length y);
  let acc = ref 0. in
  for i = 0 to Array.length x - 1 do
    acc := !acc +. (x.(i) *. y.(i))
  done;
  !acc

let norm x = sqrt (dot x x)

(* s = b - A x into [s], row by row; stops at the first slack that is
   not positive and says whether none was. *)
let fill_slacks a b x s =
  let m = n_rows a in
  let r = ref 0 and positive = ref true in
  while !positive && !r < m do
    let acc = ref 0. in
    for p = a.row_ptr.(!r) to a.row_ptr.(!r + 1) - 1 do
      acc := !acc +. (a.value.(p) *. x.(a.col_idx.(p)))
    done;
    s.(!r) <- b.(!r) -. !acc;
    positive := s.(!r) > 0.;
    incr r
  done;
  !positive

(* y <- A^T v *)
let mul_transpose a v y =
  Array.fill y 0 (Array.length y) 0.;
  for r = 0 to n_rows a - 1 do
    let vr = v.(r) in
    for p = a.row_ptr.(r) to a.row_ptr.(r + 1) - 1 do
      let j = a.col_idx.(p) in
      y.(j) <- y.(j) +. (a.value.(p) *. vr)
    done
  done

(* y <- -A x *)
let neg_mul a x y =
  for r = 0 to n_rows a - 1 do
    let acc = ref 0. in
    for p = a.row_ptr.(r) to a.row_ptr.(r + 1) - 1 do
      acc := !acc +. (a.value.(p) *. x.(a.col_idx.(p)))
    done;
    y.(r) <- -. !acc
  done

(* Once per [minimize]: the lower pattern of the Newton matrix (the
   diagonal plus every pair of columns that share a row of A), where
   each row-pair product lands in it, and the Cholesky analysis.  Only
   flat arrays: A's rows by column, then each column k hands itself to
   the later columns of its rows, so every row of the pattern receives
   its columns in ascending order and its diagonal last. *)
type plan = {
  chol : Chol.t;
  kval : float array; (* lower-triangle values, aligned with [chol]'s pattern *)
  diag_pos : int array;
  pair_pos : int array; (* per row of A, per entry pair (pa, pb <= pa), in loop order *)
}

let plan a n =
  let m = n_rows a in
  let col_ptr = Array.make (n + 1) 0 in
  for p = 0 to a.row_ptr.(m) - 1 do
    let j = a.col_idx.(p) in
    col_ptr.(j + 1) <- col_ptr.(j + 1) + 1
  done;
  for j = 0 to n - 1 do
    col_ptr.(j + 1) <- col_ptr.(j + 1) + col_ptr.(j)
  done;
  let col_row = Array.make col_ptr.(n) 0 and next = Array.sub col_ptr 0 n in
  for r = 0 to m - 1 do
    for p = a.row_ptr.(r) to a.row_ptr.(r + 1) - 1 do
      let j = a.col_idx.(p) in
      col_row.(next.(j)) <- r;
      next.(j) <- next.(j) + 1
    done
  done;
  (* [later k visit]: [visit j] once for each column j > k sharing a
     row with k *)
  let mark = Array.make n (-1) in
  let later k visit =
    for q = col_ptr.(k) to col_ptr.(k + 1) - 1 do
      let r = col_row.(q) in
      for p = a.row_ptr.(r) to a.row_ptr.(r + 1) - 1 do
        let j = a.col_idx.(p) in
        if j > k && mark.(j) <> k then begin
          mark.(j) <- k;
          visit j
        end
      done
    done
  in
  let k_ptr = Array.make (n + 1) 0 in
  let count j = k_ptr.(j + 1) <- k_ptr.(j + 1) + 1 in
  for k = 0 to n - 1 do
    later k count
  done;
  for j = 0 to n - 1 do
    k_ptr.(j + 1) <- k_ptr.(j + 1) + k_ptr.(j) + 1
  done;
  Array.fill mark 0 n (-1);
  let k_col = Array.make k_ptr.(n) 0 and fill = Array.sub k_ptr 0 n in
  let column = ref 0 in
  let place j =
    k_col.(fill.(j)) <- !column;
    fill.(j) <- fill.(j) + 1
  in
  for k = 0 to n - 1 do
    column := k;
    place k;
    later k place
  done;
  (* binary search for column k in row j of the pattern *)
  let position j k =
    let rec go lo hi =
      let mid = (lo + hi) / 2 in
      if k_col.(mid) < k then go (mid + 1) hi else if k_col.(mid) > k then go lo mid else mid
    in
    go k_ptr.(j) k_ptr.(j + 1)
  in
  let pairs = ref 0 in
  for r = 0 to m - 1 do
    let len = a.row_ptr.(r + 1) - a.row_ptr.(r) in
    pairs := !pairs + (len * (len + 1) / 2)
  done;
  let pair_pos = Array.make !pairs 0 and q = ref 0 in
  for r = 0 to m - 1 do
    for pa = a.row_ptr.(r) to a.row_ptr.(r + 1) - 1 do
      for pb = a.row_ptr.(r) to pa do
        pair_pos.(!q) <- position a.col_idx.(pa) a.col_idx.(pb);
        incr q
      done
    done
  done;
  {
    chol = Chol.analyze ~n ~row_ptr:k_ptr ~col_idx:k_col;
    kval = Array.make k_ptr.(n) 0.;
    diag_pos = Array.init n (fun j -> k_ptr.(j + 1) - 1);
    pair_pos;
  }

(* Lower triangle of [diag(hd) + Aᵀ diag(w) A + 10⁻¹² I] into
   [plan.kval].  Entry (j, k), k <= j, sums (w_r a_rj) a_rk over the
   rows r in order; the 1e-12 keeps the factor positive definite when
   f is flat along some direction inside the polytope. *)
let assemble plan a hd w =
  let k = plan.kval in
  Array.fill k 0 (Array.length k) 0.;
  Array.iteri (fun j p -> k.(p) <- hd.(j)) plan.diag_pos;
  let q = ref 0 in
  for r = 0 to n_rows a - 1 do
    let wr = w.(r) in
    for pa = a.row_ptr.(r) to a.row_ptr.(r + 1) - 1 do
      let wa = wr *. a.value.(pa) in
      for pb = a.row_ptr.(r) to pa do
        let p = plan.pair_pos.(!q) in
        k.(p) <- k.(p) +. (wa *. a.value.(pb));
        incr q
      done
    done
  done;
  Array.iter (fun p -> k.(p) <- k.(p) +. 1e-12) plan.diag_pos

(* Factor the iteration's Newton matrix once and return its solver.
   When the sparse Cholesky meets a non-positive pivot, the 10⁻¹² shift
   was lost to rounding against the largest diagonal entry: the same
   pattern is factored again with every diagonal entry shifted by δ,
   from that entry's rounding unit up tenfold per retry.  A matrix
   still indefinite after [shift_retries] of them gives no step. *)
let shift_retries = 8

let factor plan a hd w =
  assemble plan a hd w;
  let k = plan.kval in
  match Chol.factor plan.chol k with
  | () -> Chol.solve plan.chol
  | exception Chol.Not_positive_definite ->
    Obs.incr c_shifted;
    let diag = Array.map (fun p -> k.(p)) plan.diag_pos in
    let rec retry delta left =
      if left = 0 then fun rhs -> Array.make (Array.length rhs) 0.
      else begin
        Array.iteri (fun j p -> k.(p) <- diag.(j) +. delta) plan.diag_pos;
        match Chol.factor plan.chol k with
        | () -> Chol.solve plan.chol
        | exception Chol.Not_positive_definite -> retry (10. *. delta) (left - 1)
      end
    in
    let big = Array.fold_left (fun acc d -> Float.max acc (Float.abs d)) 0. diag in
    retry (epsilon_float *. big) shift_retries

(* A primal-dual point: x strictly feasible, its slacks s = b − A x,
   one multiplier per row, ∇f(x) and the dual residual
   r_d = ∇f(x) + Aᵀλ. *)
type point = {
  x : float array;
  s : float array;
  lam : float array;
  mutable g : float array;
  rd : float array;
  mutable gap : float; (* sᵀλ *)
  mutable rd_norm : float;
  mutable min_product : float; (* min over rows of s_r λ_r *)
}

let new_point n m =
  {
    x = Array.make n 0.;
    s = Array.make m 0.;
    lam = Array.make m 0.;
    g = [||];
    rd = Array.make n 0.;
    gap = 0.;
    rd_norm = 0.;
    min_product = 0.;
  }

(* Fill in everything that follows from [p.x] and [p.lam]; false when
   some slack is not positive (then the rest is not computed). *)
let evaluate obj a b p =
  fill_slacks a b p.x p.s
  && begin
    p.g <- obj.grad p.x;
    mul_transpose a p.lam p.rd;
    for j = 0 to Array.length p.rd - 1 do
      p.rd.(j) <- p.g.(j) +. p.rd.(j)
    done;
    p.rd_norm <- norm p.rd;
    let gap = ref 0. and lowest = ref infinity in
    for r = 0 to Array.length p.s - 1 do
      let v = p.s.(r) *. p.lam.(r) in
      gap := !gap +. v;
      if v < !lowest then lowest := v
    done;
    p.gap <- !gap;
    p.min_product <- !lowest;
    true
  end

(* The method's constants: the fraction of the way to the boundary a
   step may go while the complementarity is large (it goes as 1 − μ/μ⁰
   beyond that), the backtracking factor, the line search's sufficient
   decrease, the neighbourhood of the central path every iterate stays
   in, the shortest step a direction may take before the next one is
   tried, the duality-gap target, the relative gap the stop demands
   besides it (so that the accuracy does not depend on the instance's
   units), and the iteration cap. *)
let to_boundary = 0.99
let backtrack = 0.8
let armijo = 0.01
let centrality = 1e-3
let dual_lag = 100.
let short_step = 0.1
let tol = 1e-8
let rtol = 1e-12
let max_iter = 100

let minimize obj ~a ~b ~x0 =
  let m = n_rows a and n = Array.length x0 in
  assert (Array.length b = m);
  let p = new_point n m in
  if not (fill_slacks a b x0 p.s) then raise Not_strictly_feasible;
  Obs.time t_minimize @@ fun () ->
  let plan = plan a n in
  let fm = float_of_int (max m 1) in
  let cur = ref p and trial = ref (new_point n m) in
  Array.blit x0 0 p.x 0 n;
  (* λ⁰_r s⁰_r = |f(x⁰)|/m: the start has the objective's units, so
     scaling f or x scales the whole path *)
  let scale =
    let f0 = Float.abs (obj.f p.x) in
    if f0 > 0. && Float.is_finite f0 then f0 else 1.
  in
  Array.iteri (fun r sr -> p.lam.(r) <- scale /. (fm *. sr)) p.s;
  ignore (evaluate obj a b p);
  let mu0 = p.gap /. fm and rd0 = if p.rd_norm > 0. then p.rd_norm else 1. in
  let sqrt_m = sqrt fm in
  (* per-iteration buffers *)
  let w = Array.make m 0. and tau = Array.make m 0. and rhs = Array.make n 0. in
  let ds = Array.make m 0. and dlam = Array.make m 0. in
  let ds_aff = Array.make m 0. and dlam_aff = Array.make m 0. in
  (* the line search's merit at target products σμ: the dual residual
     and the distance of the products s_r λ_r from the target, each
     relative to the start *)
  let merit q target =
    let acc = ref 0. in
    for r = 0 to m - 1 do
      let d = (q.s.(r) *. q.lam.(r)) -. target in
      acc := !acc +. (d *. d)
    done;
    (q.rd_norm /. rd0) +. (sqrt !acc /. (sqrt_m *. mu0))
  in
  (* the Newton direction towards products [tau]:
     K dx = −∇f − Aᵀ(τ/s), ds = −A dx, dλ_r = (τ_r − λ_r s_r − λ_r ds_r)/s_r *)
  let direction solve q ds dlam =
    for r = 0 to m - 1 do
      w.(r) <- tau.(r) /. q.s.(r)
    done;
    mul_transpose a w rhs;
    for j = 0 to n - 1 do
      rhs.(j) <- -.(q.g.(j) +. rhs.(j))
    done;
    let dx = solve rhs in
    neg_mul a dx ds;
    for r = 0 to m - 1 do
      dlam.(r) <- (tau.(r) -. (q.lam.(r) *. q.s.(r)) -. (q.lam.(r) *. ds.(r))) /. q.s.(r)
    done;
    dx
  in
  (* the longest step that keeps s and λ nonnegative *)
  let step_to_boundary q ds dlam =
    let alpha = ref infinity in
    for r = 0 to m - 1 do
      if ds.(r) < 0. && -.q.s.(r) /. ds.(r) < !alpha then alpha := -.q.s.(r) /. ds.(r);
      if dlam.(r) < 0. && -.q.lam.(r) /. dlam.(r) < !alpha then alpha := -.q.lam.(r) /. dlam.(r)
    done;
    !alpha
  in
  (* Backtracking along (dx, ds, dlam).  A trial point must be strictly
     feasible (its slacks recomputed from x), keep every product at
     least [centrality] times their mean, keep the dual residual's
     progress within [dual_lag] of the complementarity's, and lower
     the merit.  False once the step falls under [short_step] of the
     longest one; true with the accepted point in [!trial]. *)
  let line_search q dx target =
    let alpha_max = step_to_boundary q ds dlam in
    let longest = Float.min 1. alpha_max in
    let eta = Float.max to_boundary (1. -. (q.gap /. fm /. mu0)) in
    let m0 = merit q target in
    let rec go alpha =
      if alpha < short_step *. longest then false
      else begin
        Obs.incr c_line_search;
        let t = !trial in
        for j = 0 to n - 1 do
          t.x.(j) <- q.x.(j) +. (alpha *. dx.(j))
        done;
        for r = 0 to m - 1 do
          t.lam.(r) <- q.lam.(r) +. (alpha *. dlam.(r))
        done;
        (evaluate obj a b t
        &&
        let mu = t.gap /. fm in
        t.min_product >= centrality *. mu
        && t.rd_norm /. rd0 <= dual_lag *. mu /. mu0
        && merit t target <= (1. -. (armijo *. alpha)) *. m0)
        || go (alpha *. backtrack)
      end
    in
    go (Float.min 1. (eta *. alpha_max))
  in
  (* Stop at the gap target, at the rounding floor (no direction lowers
     the merit any more) or at the cap. *)
  let converged q = q.gap <= Float.min tol (rtol *. Float.abs (obj.f q.x)) in
  let iter = ref 0 and stopped = ref false in
  while not (!stopped || converged !cur) do
    if !iter = max_iter then begin
      Obs.incr c_cap_hit;
      stopped := true
    end
    else begin
      incr iter;
      Obs.incr c_newton;
      let q = !cur in
      for r = 0 to m - 1 do
        w.(r) <- q.lam.(r) /. q.s.(r)
      done;
      let solve = factor plan a (obj.hess q.x) w in
      let mu = q.gap /. fm in
      (* predictor: target products 0 *)
      Array.fill tau 0 m 0.;
      ignore (direction solve q ds_aff dlam_aff);
      let alpha_aff = Float.min 1. (step_to_boundary q ds_aff dlam_aff) in
      let mu_aff = ref 0. in
      for r = 0 to m - 1 do
        mu_aff :=
          !mu_aff
          +. ((q.s.(r) +. (alpha_aff *. ds_aff.(r))) *. (q.lam.(r) +. (alpha_aff *. dlam_aff.(r))))
      done;
      let sigma = Float.min 1. (Float.pow (!mu_aff /. fm /. mu) 3.) in
      (* Mehrotra's corrector first; when its step is short, the pure
         Newton direction at the same σ, then the centering directions
         σ ≥ 0.5 and σ = 1 (counted) *)
      let attempts =
        [ (sigma, true, false); (sigma, false, false) ]
        @ (if sigma < 0.5 then [ (0.5, false, true) ] else [])
        @ if sigma < 1. then [ (1., false, true) ] else []
      in
      let rec attempt = function
        | [] -> stopped := true
        | (sg, corrected, centering) :: rest ->
          let target = sg *. mu in
          for r = 0 to m - 1 do
            tau.(r) <- (if corrected then target -. (ds_aff.(r) *. dlam_aff.(r)) else target)
          done;
          let dx = direction solve q ds dlam in
          if line_search q dx target then begin
            if centering then Obs.incr c_centering;
            cur := !trial;
            trial := q
          end
          else attempt rest
      in
      attempt attempts
    end
  done;
  Array.copy !cur.x
