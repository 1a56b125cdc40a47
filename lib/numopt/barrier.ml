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
let c_dense_fallback = Obs.counter "barrier_dense_fallbacks"
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

(* y <- a x + y *)
let axpy a x y =
  assert (Array.length x = Array.length y);
  for i = 0 to Array.length x - 1 do
    y.(i) <- y.(i) +. (a *. x.(i))
  done

let scale a x = Array.map (fun v -> a *. v) x

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

let feasible_start ~a ~b ~x0 = fill_slacks a b x0 (Array.make (n_rows a) 0.)

(* The barrier problem at weight t, for s = b - A x > 0:
   phi(x) = t f(x) - sum_r log s_r
   grad   = t grad_f + A^T (1/s)
   hess   = t diag(hess_f) + A^T diag(1/s^2) A *)
let barrier_value obj ~t x s =
  let logsum = ref 0. in
  for r = 0 to Array.length s - 1 do
    logsum := !logsum +. log s.(r)
  done;
  (t *. obj.f x) -. !logsum

let barrier_grad obj ~t a x s =
  let g = Array.make (Array.length x) 0. in
  for r = 0 to n_rows a - 1 do
    let inv = 1. /. s.(r) in
    for p = a.row_ptr.(r) to a.row_ptr.(r + 1) - 1 do
      let j = a.col_idx.(p) in
      g.(j) <- g.(j) +. (inv *. a.value.(p))
    done
  done;
  let gf = obj.grad x in
  for j = 0 to Array.length x - 1 do
    g.(j) <- (t *. gf.(j)) +. g.(j)
  done;
  g

(* Once per [minimize]: the lower pattern of the Hessian (the diagonal
   plus every pair of columns that share a row of A), where each
   row-pair product lands in it, and the Cholesky analysis. *)
type plan = {
  chol : Chol.t;
  hval : float array; (* lower-triangle values, aligned with [chol]'s pattern *)
  diag_pos : int array;
  pair_pos : int array; (* per row of A, per entry pair (pa, pb <= pa), in loop order *)
}

let plan a n =
  let below = Array.make n [] in
  for r = 0 to n_rows a - 1 do
    for pa = a.row_ptr.(r) to a.row_ptr.(r + 1) - 1 do
      for pb = a.row_ptr.(r) to pa - 1 do
        let j = a.col_idx.(pa) in
        below.(j) <- a.col_idx.(pb) :: below.(j)
      done
    done
  done;
  let rows = Array.mapi (fun j ks -> Array.of_list (List.sort_uniq Int.compare (j :: ks))) below in
  let row_ptr = Array.make (n + 1) 0 in
  Array.iteri (fun j row -> row_ptr.(j + 1) <- row_ptr.(j) + Array.length row) rows;
  let col_idx = Array.concat (Array.to_list rows) in
  (* binary search for column k in row j of the pattern *)
  let position j k =
    let rec go lo hi =
      let mid = (lo + hi) / 2 in
      if col_idx.(mid) < k then go (mid + 1) hi else if col_idx.(mid) > k then go lo mid else mid
    in
    go row_ptr.(j) row_ptr.(j + 1)
  in
  let pairs = ref [] in
  for r = 0 to n_rows a - 1 do
    for pa = a.row_ptr.(r) to a.row_ptr.(r + 1) - 1 do
      for pb = a.row_ptr.(r) to pa do
        pairs := position a.col_idx.(pa) a.col_idx.(pb) :: !pairs
      done
    done
  done;
  {
    chol = Chol.analyze ~n ~row_ptr ~col_idx;
    hval = Array.make (Array.length col_idx) 0.;
    diag_pos = Array.init n (fun j -> row_ptr.(j + 1) - 1);
    pair_pos = Array.of_list (List.rev !pairs);
  }

(* Lower triangle of the regularised Hessian into [plan.hval].  Entry
   (j, k), k <= j, sums (w_r a_rj) a_rk over the rows r in order, as
   the dense accumulation did; the 1e-12 keeps the factor positive
   definite when f is flat along some direction inside the polytope. *)
let assemble plan ~t a hd s =
  let h = plan.hval in
  Array.fill h 0 (Array.length h) 0.;
  Array.iteri (fun j p -> h.(p) <- t *. hd.(j)) plan.diag_pos;
  let q = ref 0 in
  for r = 0 to n_rows a - 1 do
    let w = 1. /. (s.(r) *. s.(r)) in
    for pa = a.row_ptr.(r) to a.row_ptr.(r + 1) - 1 do
      let wa = w *. a.value.(pa) in
      for pb = a.row_ptr.(r) to pa do
        let p = plan.pair_pos.(!q) in
        h.(p) <- h.(p) +. (wa *. a.value.(pb));
        incr q
      done
    done
  done;
  Array.iter (fun p -> h.(p) <- h.(p) +. 1e-12) plan.diag_pos

(* The same Hessian as a dense matrix, both triangles, for the LU
   fallback.  Its upper triangle is not the exact mirror of the lower
   one: each entry keeps its own rounding. *)
let dense_hessian ~t a hd s =
  let n = Array.length hd in
  let h = Array.make_matrix n n 0. in
  Array.iteri (fun j hj -> hj.(j) <- t *. hd.(j)) h;
  for r = 0 to n_rows a - 1 do
    let w = 1. /. (s.(r) *. s.(r)) in
    for pa = a.row_ptr.(r) to a.row_ptr.(r + 1) - 1 do
      let hj = h.(a.col_idx.(pa)) and wa = w *. a.value.(pa) in
      for pb = a.row_ptr.(r) to a.row_ptr.(r + 1) - 1 do
        let k = a.col_idx.(pb) in
        hj.(k) <- hj.(k) +. (wa *. a.value.(pb))
      done
    done
  done;
  Array.iteri (fun j hj -> hj.(j) <- hj.(j) +. 1e-12) h;
  h

(* Newton direction: sparse Cholesky; an indefinite (to working
   precision) system goes to the dense pivoting LU, and a singular one
   to a short gradient step. *)
let newton_step obj plan ~t a x s g =
  let hd = obj.hess x in
  assemble plan ~t a hd s;
  let rhs = Array.make (Array.length g) 0. in
  for j = 0 to Array.length g - 1 do
    rhs.(j) <- -1. *. g.(j)
  done;
  match Chol.factor plan.chol plan.hval with
  | () -> Chol.solve plan.chol rhs
  | exception Chol.Not_positive_definite -> (
    Obs.incr c_dense_fallback;
    match Dense_lu.solve (dense_hessian ~t a hd s) rhs with
    | step -> step
    | exception Dense_lu.Singular -> scale (-1e-6) g)

(* The iterate, its slacks, and spare buffers for line-search trial
   points; an accepted trial swaps in with the slacks it computed. *)
type iterate = {
  mutable x : float array;
  mutable s : float array;
  mutable x' : float array;
  mutable s' : float array;
}

let accept it =
  let x = it.x and s = it.s in
  it.x <- it.x';
  it.s <- it.s';
  it.x' <- x;
  it.s' <- s

(* The inner loop's stop rule and the outer loop's schedule. *)
let t0 = 1.
let mu = 15.
let newton_tol = 1e-10
let max_newton = 80

(* Damped Newton with backtracking on the barrier function.  A
   centering ends when the Newton decrement is small, when the Armijo
   decrease a full step must show is below phi's rounding unit, when
   the point the line search settles on does not lower phi in double
   precision (that step is not taken), or at [max_newton] steps. *)
let newton obj plan ~t ~a ~b it =
  let continue = ref true in
  let iters = ref 0 in
  while !continue && !iters < max_newton do
    incr iters;
    Obs.incr c_newton;
    let g = barrier_grad obj ~t a it.x it.s in
    let step = newton_step obj plan ~t a it.x it.s g in
    let decrement = -.dot g step in
    let phi0 = barrier_value obj ~t it.x it.s in
    if decrement /. 2. <= newton_tol || 0.25 *. decrement <= epsilon_float *. Float.abs phi0 then
      continue := false
    else begin
      (* backtracking line search, alpha=0.25, beta=0.5; a trial point
         with a non-positive slack has phi = +inf *)
      let rec search stepsize k =
        if k > 60 then infinity
        else begin
          let cand = it.x' in
          Array.blit it.x 0 cand 0 (Array.length cand);
          axpy stepsize step cand;
          Obs.incr c_line_search;
          let phi = if fill_slacks a b cand it.s' then barrier_value obj ~t cand it.s' else infinity in
          if phi <= phi0 -. (0.25 *. stepsize *. decrement) then phi
          else search (stepsize *. 0.5) (k + 1)
        end
      in
      if search 1. 0 < phi0 then accept it else continue := false
    end
  done;
  if !continue then Obs.incr c_cap_hit

let minimize ?(tol = 1e-8) obj ~a ~b ~x0 =
  let m = n_rows a and n = Array.length x0 in
  assert (Array.length b = m);
  let s0 = Array.make m 0. in
  if not (fill_slacks a b x0 s0) then raise Not_strictly_feasible;
  Obs.time t_minimize @@ fun () ->
  let plan = plan a n in
  let it = { x = Array.copy x0; s = s0; x' = Array.make n 0.; s' = Array.make m 0. } in
  let t = ref t0 in
  let gap () = float_of_int m /. !t in
  while gap () > tol do
    Obs.incr c_centering;
    newton obj plan ~t:!t ~a ~b it;
    t := !t *. mu
  done;
  Obs.incr c_centering;
  newton obj plan ~t:!t ~a ~b it;
  it.x
