type relation = Le | Eq | Ge
type constr = { coeffs : float array; relation : relation; rhs : float }
type sparse_row = { nonzeros : (int * float) list; relation : relation; rhs : float }

(* Standard form: minimise obj·x over  A x = b  after every inequality
   row gains a slack (+1 for <=) or surplus (-1 for >=) column.  Rows
   are NOT sign-normalised: the column structure is a function of the
   rows' coefficients and senses only, never of the right-hand side, so
   a basis learned at one rhs remains a meaningful starting basis at
   any other rhs (the warm-start contract). *)
type t = {
  m : int;
  n_struct : int;
  n_cols : int;
  col_ptr : int array; (* length n_cols + 1 *)
  row_idx : int array;
  col_val : float array;
  obj : float array; (* length n_cols: structural costs then zeros *)
  rhs : float array; (* length m, caller's signs *)
  rels : relation array; (* length m, caller's senses *)
  slack_col : int array; (* per row: its slack/surplus column, or -1 on = rows *)
}

let of_sparse_rows ~obj (rows : sparse_row list) =
  let rows = Array.of_list rows in
  let m = Array.length rows in
  let n_struct = Array.length obj in
  (* slack/surplus columns follow the structural ones, in row order *)
  let slack_col = Array.make m (-1) in
  let n_cols = ref n_struct in
  Array.iteri
    (fun i r ->
      match r.relation with
      | Eq -> ()
      | Le | Ge ->
        slack_col.(i) <- !n_cols;
        incr n_cols)
    rows;
  let n_cols = !n_cols in
  (* count per column, then fill in row order so each column's rows
     come out increasing *)
  let col_ptr = Array.make (n_cols + 1) 0 in
  let count j = col_ptr.(j + 1) <- col_ptr.(j + 1) + 1 in
  Array.iteri
    (fun i r ->
      List.iter
        (fun (j, _) ->
          if j < 0 || j >= n_struct then
            invalid_arg "Sparse.of_sparse_rows: column index out of range";
          count j)
        r.nonzeros;
      if slack_col.(i) >= 0 then count slack_col.(i))
    rows;
  for j = 0 to n_cols - 1 do
    col_ptr.(j + 1) <- col_ptr.(j) + col_ptr.(j + 1)
  done;
  let nnz = col_ptr.(n_cols) in
  let row_idx = Array.make nnz 0 in
  let col_val = Array.make nnz 0. in
  let cursor = Array.sub col_ptr 0 n_cols in
  let put i j v =
    let k = cursor.(j) in
    row_idx.(k) <- i;
    col_val.(k) <- v;
    cursor.(j) <- k + 1
  in
  Array.iteri
    (fun i r ->
      List.iter (fun (j, v) -> put i j v) r.nonzeros;
      match r.relation with
      | Eq -> ()
      | Le -> put i slack_col.(i) 1.
      | Ge -> put i slack_col.(i) (-1.))
    rows;
  let full_obj = Array.make n_cols 0. in
  Array.blit obj 0 full_obj 0 n_struct;
  {
    m;
    n_struct;
    n_cols;
    col_ptr;
    row_idx;
    col_val;
    obj = full_obj;
    rhs = Array.map (fun (r : sparse_row) -> r.rhs) rows;
    rels = Array.map (fun (r : sparse_row) -> r.relation) rows;
    slack_col;
  }

let of_rows ~obj constraints =
  let n_struct = Array.length obj in
  of_sparse_rows ~obj
    (List.map
       (fun (r : constr) ->
         if Array.length r.coeffs <> n_struct then
           invalid_arg "Sparse.of_rows: row length does not match the objective";
         let nonzeros = ref [] in
         for j = n_struct - 1 downto 0 do
           let v = r.coeffs.(j) in
           if v <> 0. then nonzeros := (j, v) :: !nonzeros
         done;
         { nonzeros = !nonzeros; relation = r.relation; rhs = r.rhs })
       constraints)

let with_rhs t rhs =
  if Array.length rhs <> t.m then
    invalid_arg "Sparse.with_rhs: rhs length does not match the row count";
  { t with rhs = Array.copy rhs }

let m t = t.m
let n_struct t = t.n_struct
let n_cols t = t.n_cols
let slack_col t i = t.slack_col.(i)
let row_relation t i = t.rels.(i)
let nnz t = t.col_ptr.(t.n_cols)
let rhs t = Array.copy t.rhs
let obj t j = t.obj.(j)

let col_ptr t = t.col_ptr
let row_idx t = t.row_idx
let col_val t = t.col_val
