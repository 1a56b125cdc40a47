type var = int

type row = { expr : (float * var) list; relation : Sparse.relation; rhs : float }

type t = {
  mutable objs : float list; (* reversed *)
  mutable nv : int;
  mutable rows : row list; (* reversed *)
  mutable nr : int;
}

type expr = (float * var) list

let create () = { objs = []; nv = 0; rows = []; nr = 0 }

let var t ?(obj = 0.) () =
  let id = t.nv in
  t.nv <- id + 1;
  t.objs <- obj :: t.objs;
  id

let add_row t expr relation rhs =
  t.rows <- { expr; relation; rhs } :: t.rows;
  t.nr <- t.nr + 1

let le t expr rhs = add_row t expr Sparse.Le rhs
let ge t expr rhs = add_row t expr Sparse.Ge rhs
let eq t expr rhs = add_row t expr Sparse.Eq rhs
let upper_bound t v u = le t [ (1., v) ] u

type solution = { objective : float; values : float array; duals : float array }
type outcome = Solution of solution | Infeasible | Unbounded

module Obs = Es_obs.Obs

let c_solves = Obs.counter "lp_solves"
let t_solve = Obs.timer "lp_solve"

let objective_coeffs t = Array.of_list (List.rev t.objs)

let to_constr t { expr; relation; rhs } =
  let coeffs = Array.make t.nv 0. in
  List.iter (fun (c, v) -> coeffs.(v) <- coeffs.(v) +. c) expr;
  { Sparse.coeffs; relation; rhs }

let constraints t = List.rev_map (to_constr t) t.rows

(* Each row's coefficients summed per variable exactly as [to_constr]
   sums them — in list order, starting from 0. — with zero sums
   dropped, so the CSC form is the one [Sparse.of_rows] builds from
   [constraints], without an n_vars-long array per row. *)
let to_sparse t =
  let acc = Array.make t.nv 0. in
  let seen = Array.make t.nv false in
  let sparse_row { expr; relation; rhs } =
    let touched =
      List.fold_left
        (fun touched (c, v) ->
          acc.(v) <- acc.(v) +. c;
          if seen.(v) then touched
          else begin
            seen.(v) <- true;
            v :: touched
          end)
        [] expr
    in
    let nonzeros =
      List.fold_left
        (fun nonzeros v ->
          let c = acc.(v) in
          acc.(v) <- 0.;
          seen.(v) <- false;
          if c <> 0. then (v, c) :: nonzeros else nonzeros)
        [] touched
    in
    { Sparse.nonzeros; relation; rhs }
  in
  Sparse.of_sparse_rows ~obj:(objective_coeffs t) (List.rev_map sparse_row t.rows)

let basis sp ~slacks ~vars =
  let slack r =
    if r < 0 || r >= Sparse.m sp || Sparse.slack_col sp r < 0 then
      invalid_arg "Problem.basis: not an inequality row";
    Sparse.slack_col sp r
  in
  Revised.basis_of_columns (Array.of_list (List.map slack slacks @ vars))

let counted solve =
  Obs.incr c_solves;
  Obs.time t_solve @@ fun () ->
  let outcome, next = solve () in
  let outcome =
    match outcome with
    | Revised.Optimal { objective; solution; duals } ->
      Solution { objective; values = solution; duals }
    | Revised.Infeasible -> Infeasible
    | Revised.Unbounded -> Unbounded
  in
  (outcome, next)

let solve_sparse ?basis sp =
  counted @@ fun () ->
  match basis with
  | None -> Revised.solve sp
  | Some b -> Revised.solve_from b sp

let resolve solver sp = counted (fun () -> Revised.resolve solver sp)

let solve t = fst (solve_sparse (to_sparse t))
let solve_warm ?basis t = solve_sparse ?basis (to_sparse t)

let objective s = s.objective
let value s v = s.values.(v)
let values s = Array.copy s.values
let duals s = Array.copy s.duals
let n_vars t = t.nv
let n_constraints t = t.nr
