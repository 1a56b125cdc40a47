exception Singular
exception Unstable

(* Product-form update: after the basis column at position [pos] is
   replaced, B_new = B_old · E where E is the identity with column
   [pos] replaced by w = B_old⁻¹ a_entering.  The eta file is one flat
   pool: eta [e] replaced position [eta_pos.(e)], has diagonal
   [eta_diag.(e)] = w.(pos), and its off-[pos] nonzeros are
   [eta_idx]/[eta_val] over [eta_start.(e) .. eta_start.(e + 1) − 1].
   L and U are flat pools of the same shape, one column after another.
   The pools outlive refactorisations, so once they have grown to a
   solve's working size neither an update nor a refactorisation
   allocates. *)
type t = {
  m : int;
  n_cols : int;
  col_ptr : int array;
  row_idx : int array;
  col_val : float array;
  art_sign : float array;
  (* L: unit lower triangular over pivot positions; column [j] stores
     (original row, value) pairs with pinv.(row) > j at
     [l_idx]/[l_val] over [l_start.(j) .. l_start.(j + 1) − 1] *)
  l_start : int array; (* length m + 1 *)
  mutable l_idx : int array;
  mutable l_val : float array;
  (* U: upper triangular in pivot space; column [k] stores (position
     j < k, value) pairs at [u_idx]/[u_val] over
     [u_start.(k) .. u_start.(k + 1) − 1], and its diagonal apart *)
  u_start : int array; (* length m + 1 *)
  mutable u_idx : int array;
  mutable u_val : float array;
  u_diag : float array;
  prow : int array; (* pivot position -> original row *)
  pinv : int array; (* original row -> pivot position *)
  mutable n_etas : int;
  mutable eta_pos : int array;
  mutable eta_diag : float array;
  mutable eta_start : int array; (* length = capacity + 1 *)
  mutable eta_idx : int array;
  mutable eta_val : float array;
  (* factorisation scratch *)
  x : float array;
  stamp : int array;
  node_stack : int array;
  child_pos : int array;
  order : int array;
  pattern : int array;
}

let grow_int a n =
  let b = Array.make n 0 in
  Array.blit a 0 b 0 (Array.length a);
  b

let grow_float a n =
  let b = Array.make n 0. in
  Array.blit a 0 b 0 (Array.length a);
  b

let pivot_floor = 1e-12

(* Left-looking (Gilbert–Peierls) sparse LU with partial pivoting.
   Column k of the basis is solved against the already-built L via a
   DFS over L's pattern (reverse post-order = topological order), so
   the factorisation costs O(flops) rather than O(m²).  A basis entry
   [col] at or past [n_cols] names the unit artificial
   art_sign.(i)·e_i of row i = col − n_cols; the rest are read from
   the CSC arrays. *)
let refactor t basis =
  let m = t.m in
  if Array.length basis <> m then invalid_arg "Lu.factor: basis length";
  let { l_start; u_start; u_diag; prow; pinv; x; stamp; _ } = t in
  let { node_stack; child_pos; order; pattern; _ } = t in
  Array.fill prow 0 m (-1);
  Array.fill pinv 0 m (-1);
  Array.fill stamp 0 m (-1);
  t.n_etas <- 0;
  for k = 0 to m - 1 do
    let col = basis.(k) in
    let art = col >= t.n_cols in
    let lo = if art then 0 else t.col_ptr.(col) in
    let hi = if art then 1 else t.col_ptr.(col + 1) in
    (* symbolic: pattern of x = reach of rows(a) through L *)
    let n_order = ref 0 and n_pattern = ref 0 in
    for e = lo to hi - 1 do
      let r0 = if art then col - t.n_cols else t.row_idx.(e) in
      if stamp.(r0) <> k then begin
        (* iterative DFS from r0 *)
        let top = ref 0 in
        node_stack.(0) <- r0;
        child_pos.(0) <- 0;
        stamp.(r0) <- k;
        while !top >= 0 do
          let r = node_stack.(!top) in
          let j = pinv.(r) in
          if j < 0 then begin
            (* unpivoted row: terminal *)
            pattern.(!n_pattern) <- r;
            incr n_pattern;
            decr top
          end
          else begin
            let c = l_start.(j) + child_pos.(!top) in
            if c < l_start.(j + 1) then begin
              child_pos.(!top) <- child_pos.(!top) + 1;
              let r' = t.l_idx.(c) in
              if stamp.(r') <> k then begin
                stamp.(r') <- k;
                incr top;
                node_stack.(!top) <- r';
                child_pos.(!top) <- 0
              end
            end
            else begin
              (* post-order: all descendants done *)
              order.(!n_order) <- j;
              pattern.(!n_pattern) <- r;
              incr n_pattern;
              incr n_order;
              decr top
            end
          end
        done
      end
    done;
    (* numeric: scatter, then eliminate in reverse post-order *)
    for e = lo to hi - 1 do
      if art then x.(col - t.n_cols) <- t.art_sign.(col - t.n_cols)
      else x.(t.row_idx.(e)) <- x.(t.row_idx.(e)) +. t.col_val.(e)
    done;
    for o = !n_order - 1 downto 0 do
      let j = order.(o) in
      let xj = x.(prow.(j)) in
      if xj <> 0. then begin
        let rows = t.l_idx and vals = t.l_val in
        for i = l_start.(j) to l_start.(j + 1) - 1 do
          x.(rows.(i)) <- x.(rows.(i)) -. (vals.(i) *. xj)
        done
      end
    done;
    (* pivot: largest magnitude among unpivoted pattern rows *)
    let prow_k = ref (-1) and pmax = ref 0. in
    for i = 0 to !n_pattern - 1 do
      let r = pattern.(i) in
      if pinv.(r) < 0 then begin
        let a = Float.abs x.(r) in
        if a > !pmax then begin
          pmax := a;
          prow_k := r
        end
      end
    done;
    if !prow_k < 0 || !pmax <= pivot_floor then begin
      (* clean scratch before bailing *)
      for i = 0 to !n_pattern - 1 do
        x.(pattern.(i)) <- 0.
      done;
      raise Singular
    end;
    let piv_row = !prow_k in
    let piv = x.(piv_row) in
    (* U column k: entries at already-pivoted positions; L column k:
       the other nonzeros but the pivot, divided by it.  Each is
       appended to its pool, grown first to fit the whole pattern *)
    let u0 = u_start.(k) and l0 = l_start.(k) in
    if u0 + !n_pattern > Array.length t.u_idx then begin
      let cap = max (u0 + !n_pattern) (2 * Array.length t.u_idx) in
      t.u_idx <- grow_int t.u_idx cap;
      t.u_val <- grow_float t.u_val cap
    end;
    if l0 + !n_pattern > Array.length t.l_idx then begin
      let cap = max (l0 + !n_pattern) (2 * Array.length t.l_idx) in
      t.l_idx <- grow_int t.l_idx cap;
      t.l_val <- grow_float t.l_val cap
    end;
    let iu = ref u0 and il = ref l0 in
    for i = 0 to !n_pattern - 1 do
      let r = pattern.(i) in
      if pinv.(r) >= 0 then begin
        if x.(r) <> 0. then begin
          t.u_idx.(!iu) <- pinv.(r);
          t.u_val.(!iu) <- x.(r);
          incr iu
        end
      end
      else if r <> piv_row && x.(r) <> 0. then begin
        t.l_idx.(!il) <- r;
        t.l_val.(!il) <- x.(r) /. piv;
        incr il
      end;
      x.(r) <- 0.
    done;
    u_start.(k + 1) <- !iu;
    u_diag.(k) <- piv;
    l_start.(k + 1) <- !il;
    prow.(k) <- piv_row;
    pinv.(piv_row) <- k
  done

let eta_capacity = 8

let factor sp ~art_sign basis =
  let m = Sparse.m sp in
  let t =
    {
      m;
      n_cols = Sparse.n_cols sp;
      col_ptr = Sparse.col_ptr sp;
      row_idx = Sparse.row_idx sp;
      col_val = Sparse.col_val sp;
      art_sign;
      l_start = Array.make (m + 1) 0;
      l_idx = Array.make m 0;
      l_val = Array.make m 0.;
      u_start = Array.make (m + 1) 0;
      u_idx = Array.make m 0;
      u_val = Array.make m 0.;
      u_diag = Array.make m 0.;
      prow = Array.make m (-1);
      pinv = Array.make m (-1);
      n_etas = 0;
      eta_pos = Array.make eta_capacity 0;
      eta_diag = Array.make eta_capacity 0.;
      eta_start = Array.make (eta_capacity + 1) 0;
      eta_idx = Array.make m 0;
      eta_val = Array.make m 0.;
      x = Array.make m 0.;
      stamp = Array.make m (-1);
      node_stack = Array.make m 0;
      child_pos = Array.make m 0;
      order = Array.make m 0;
      pattern = Array.make m 0;
    }
  in
  refactor t basis;
  t

let n_updates t = t.n_etas

(* solve B x = b into [z] (basis-position space); [b] is consumed as
   scratch (row space). *)
let ftran t b z =
  let m = t.m in
  (* L z = P b *)
  let rows = t.l_idx and vals = t.l_val in
  for j = 0 to m - 1 do
    let zj = b.(t.prow.(j)) in
    z.(j) <- zj;
    if zj <> 0. then
      for i = t.l_start.(j) to t.l_start.(j + 1) - 1 do
        b.(rows.(i)) <- b.(rows.(i)) -. (vals.(i) *. zj)
      done
  done;
  (* U x = z *)
  let rows = t.u_idx and vals = t.u_val in
  for k = m - 1 downto 0 do
    let xk = z.(k) /. t.u_diag.(k) in
    z.(k) <- xk;
    if xk <> 0. then
      for i = t.u_start.(k) to t.u_start.(k + 1) - 1 do
        z.(rows.(i)) <- z.(rows.(i)) -. (vals.(i) *. xk)
      done
  done;
  (* eta file, oldest first *)
  let idx = t.eta_idx and vals = t.eta_val in
  for e = 0 to t.n_etas - 1 do
    let pos = t.eta_pos.(e) in
    let xp = z.(pos) /. t.eta_diag.(e) in
    if xp <> 0. then
      for i = t.eta_start.(e) to t.eta_start.(e + 1) - 1 do
        z.(idx.(i)) <- z.(idx.(i)) -. (vals.(i) *. xp)
      done;
    z.(pos) <- xp
  done

(* solve Bᵀ y = c into [y] (row space); [c] is indexed by basis
   position and consumed as scratch. *)
let btran t c y =
  let m = t.m in
  (* eta transposes, newest first *)
  let idx = t.eta_idx and vals = t.eta_val in
  for e = t.n_etas - 1 downto 0 do
    let pos = t.eta_pos.(e) in
    let s = ref c.(pos) in
    for i = t.eta_start.(e) to t.eta_start.(e + 1) - 1 do
      s := !s -. (vals.(i) *. c.(idx.(i)))
    done;
    c.(pos) <- !s /. t.eta_diag.(e)
  done;
  (* Uᵀ s = c (forward) *)
  let rows = t.u_idx and vals = t.u_val in
  for k = 0 to m - 1 do
    let acc = ref c.(k) in
    for i = t.u_start.(k) to t.u_start.(k + 1) - 1 do
      acc := !acc -. (vals.(i) *. c.(rows.(i)))
    done;
    c.(k) <- !acc /. t.u_diag.(k)
  done;
  (* Lᵀ t = s (backward), then y = Pᵀ t *)
  let rows = t.l_idx and vals = t.l_val in
  for j = m - 1 downto 0 do
    let acc = ref c.(j) in
    for i = t.l_start.(j) to t.l_start.(j + 1) - 1 do
      acc := !acc -. (vals.(i) *. c.(t.pinv.(rows.(i))))
    done;
    c.(j) <- !acc;
    y.(t.prow.(j)) <- !acc
  done

let eta_stability = 1e-8

let update t ~pos ~w =
  let m = t.m and e = t.n_etas in
  if e = Array.length t.eta_pos then begin
    t.eta_pos <- grow_int t.eta_pos (2 * e);
    t.eta_diag <- grow_float t.eta_diag (2 * e);
    t.eta_start <- grow_int t.eta_start ((2 * e) + 1)
  end;
  let start = t.eta_start.(e) in
  if start + m > Array.length t.eta_idx then begin
    let cap = max (start + m) (2 * Array.length t.eta_idx) in
    t.eta_idx <- grow_int t.eta_idx cap;
    t.eta_val <- grow_float t.eta_val cap
  end;
  (* one pass: the largest |w_i| and w's off-[pos] nonzeros, written
     straight into the pool past the current end *)
  let wmax = ref 0. and k = ref start in
  for i = 0 to m - 1 do
    let v = w.(i) in
    let a = Float.abs v in
    if a > !wmax then wmax := a;
    if v <> 0. && i <> pos then begin
      t.eta_idx.(!k) <- i;
      t.eta_val.(!k) <- v;
      incr k
    end
  done;
  let wp = w.(pos) in
  if Float.abs wp <= eta_stability *. Float.max 1. !wmax then raise Unstable;
  t.eta_pos.(e) <- pos;
  t.eta_diag.(e) <- wp;
  t.eta_start.(e + 1) <- !k;
  t.n_etas <- e + 1
