module Problem = Es_lp.Problem
module Sparse = Es_lp.Sparse

type reliability = { rates : float array; budgets : float array array }

type built = {
  lp : Problem.t;
  levels : float array;
  mapping : Mapping.t;
  alpha : Problem.var array array array; (* task → execution → level *)
  start : Problem.var array;
  weight : Problem.var option array; (* per task, λᵢ if its choice is open *)
  weight_rows : int array; (* per task, the row of λᵢ ≤ hᵢ, or -1 *)
  first_edge_row : int;
  upper : float array; (* per column, in registration order *)
  deadline_rows : int list; (* last row first *)
  reduced : Dag.t; (* the constraint DAG's transitive reduction: a precedence row per edge *)
}

let build ~deadline ~levels ~reliability mapping =
  if Array.length levels = 0 then invalid_arg "Bicrit_vdd: empty level set";
  let cdag = Mapping.constraint_dag mapping in
  let reduced = Dag.transitive_reduction cdag in
  let n = Dag.n cdag in
  let lp = Problem.create () in
  (* each column's implicit upper bound, which no feasible point
     exceeds: what [dual_bound] needs of a column besides its entries *)
  let upper = ref [] in
  let var ?obj u =
    upper := u :: !upper;
    Problem.var lp ?obj ()
  in
  let executions i =
    match reliability with Some r -> Array.length r.budgets.(i) | None -> 1
  in
  (* alpha.(i).(e).(k): time execution e of task i spends at speed
     levels.(k), at most w_i/f_k *)
  let alpha =
    Array.init n (fun i ->
        Array.init (executions i) (fun _ ->
            Array.map (fun f -> var ~obj:(f *. f *. f) (Dag.weight cdag i /. f)) levels))
  in
  let start = Array.init n (fun _ -> var deadline) in
  (* λᵢ, the weight of re-executing a task whose choice is open *)
  let weight = Array.init n (fun i -> if executions i = 3 then Some (var 1.) else None) in
  let time_expr i =
    Array.fold_right (Array.fold_right (fun v expr -> (1., v) :: expr)) alpha.(i) []
  in
  let weighted coeffs a = Array.to_list (Array.mapi (fun k v -> (coeffs.(k), v)) a) in
  (* record which rows carry the deadline on their right-hand side, so
     their duals sum to dE/dD *)
  let deadline_rows = ref [] in
  for i = 0 to n - 1 do
    Array.iteri
      (fun e a ->
        (* [Σₖ coeffs.(k)·αₖ (= or ≤) v], where an open choice scales
           [v] by 1 − λᵢ in its run-once block (e = 0) and by λᵢ in
           its two re-execution blocks *)
        let row add coeffs v =
          match weight.(i) with
          | None -> add lp (weighted coeffs a) v
          | Some l when e = 0 -> add lp ((v, l) :: weighted coeffs a) v
          | Some l -> add lp ((-.v, l) :: weighted coeffs a) 0.
        in
        (* work conservation, then the failure probability within the
           execution's budget, that row multiplied by the power of two
           that brings the budget into [0.5, 1): exact, and it keeps
           rates of 1e-8 from meeting work rows of O(1) in one basis *)
        row Problem.eq levels (Dag.weight cdag i);
        Option.iter
          (fun r ->
            let budget = r.budgets.(i).(e) in
            let scale x = Float.ldexp x (-snd (Float.frexp budget)) in
            row Problem.le (Array.map scale r.rates) (scale budget))
          reliability)
      alpha.(i);
    (* deadline: s_i + time_i <= D, stated at sinks only: shares and
       start times are non-negative, so a task's precedence row to a
       successor implies its deadline row *)
    if Dag.succs cdag i = [] then begin
      deadline_rows := Problem.n_constraints lp :: !deadline_rows;
      Problem.le lp ((1., start.(i)) :: time_expr i) deadline
    end
  done;
  let first_edge_row = Problem.n_constraints lp in
  (* s_i + time_i - s_j <= 0, on the reduced edges only: the rows
     along any other path from i to j imply it *)
  List.iter
    (fun (i, j) -> Problem.le lp (((1., start.(i)) :: time_expr i) @ [ (-1., start.(j)) ]) 0.)
    (Dag.edges reduced);
  (* λᵢ ≤ hᵢ then −λᵢ ≤ −ℓᵢ, stated open: h = 1, ℓ = 0 *)
  let weight_rows =
    Array.map
      (function
        | None -> -1
        | Some l ->
          let r = Problem.n_constraints lp in
          Problem.le lp [ (1., l) ] 1.;
          Problem.le lp [ (-1., l) ] 0.;
          r)
      weight
  in
  {
    lp;
    levels;
    mapping;
    alpha;
    start;
    weight;
    weight_rows;
    first_edge_row;
    upper = Array.of_list (List.rev !upper);
    deadline_rows = !deadline_rows;
    reduced;
  }

let problem b = b.lp

(* The crash basis (see the .mli): slack-basic rows first, then each
   constrained start time on the precedence row that sets its ASAP
   start at fmin, in reverse topological order, then each execution's
   slowest share.  In this order every column meets exactly one
   unfactored row, so the LU factors are triangular with no fill. *)
let crash b sp =
  let dag = b.reduced in
  let n = Dag.n dag in
  (* ASAP at the slowest level: tight.(j) is the predecessor that sets
     task j's earliest start (exact argmax, lowest index on ties), over
     the reduced edges, so that its precedence row exists *)
  let kmin = ref 0 in
  Array.iteri (fun k f -> if f < b.levels.(!kmin) then kmin := k) b.levels;
  let fmin = b.levels.(!kmin) in
  let order = Dag.topological_order dag in
  let es = Array.make n 0. and tight = Array.make n (-1) in
  Array.iter
    (fun j ->
      List.iter
        (fun i ->
          let t = es.(i) +. (Dag.weight dag i /. fmin) in
          if tight.(j) < 0 || t > es.(j) then begin
            es.(j) <- t;
            tight.(j) <- i
          end)
        (Dag.preds dag j))
    order;
  (* every inequality row is slack-basic, in row order, but the
     precedence rows that set a start *)
  let chosen = Array.make (Sparse.m sp) false in
  List.iteri (fun e (i, j) -> if tight.(j) = i then chosen.(b.first_edge_row + e) <- true) (Dag.edges dag);
  let slacks =
    List.filter (fun r -> Sparse.slack_col sp r >= 0 && not chosen.(r)) (List.init (Sparse.m sp) Fun.id)
  in
  let tight_starts =
    Array.fold_left (fun acc j -> if tight.(j) >= 0 then b.start.(j) :: acc else acc) [] order
  in
  let shares = Array.fold_right (Array.fold_right (fun a acc -> a.(!kmin) :: acc)) b.alpha [] in
  Problem.basis sp ~slacks ~vars:(tight_starts @ shares)

let with_choices b sp choice =
  let rhs = Sparse.rhs sp in
  Array.iteri
    (fun i r ->
      if r >= 0 then begin
        let lo, hi = match choice i with Some true -> (1., 1.) | Some false -> (0., 0.) | None -> (0., 1.) in
        rhs.(r) <- hi;
        rhs.(r + 1) <- -.lo
      end)
    b.weight_rows;
  Sparse.with_rhs sp rhs

let choice_weight b solution i =
  match b.weight.(i) with
  | Some l -> Problem.value solution l
  | None -> invalid_arg (Printf.sprintf "Bicrit_vdd.choice_weight: task %d has no open choice" i)

(* Weak duality: for x feasible and y of the rows' signs (≤ 0 on ≤
   rows), c·x ≥ b·y + (c − Aᵀy)·x, and 0 ≤ x ≤ u bounds the last term
   below by Σⱼ min(0, cⱼ − aⱼᵀy)·uⱼ, whatever y is. *)
let dual_bound b sp solution =
  let col_ptr = Sparse.col_ptr sp and row_idx = Sparse.row_idx sp and col_val = Sparse.col_val sp in
  let y =
    Array.mapi
      (fun r v ->
        match Sparse.row_relation sp r with
        | Sparse.Le -> Float.min v 0.
        | Sparse.Ge -> Float.max v 0.
        | Sparse.Eq -> v)
      (Problem.duals solution)
  in
  let rhs = Sparse.rhs sp in
  let bound = ref 0. in
  Array.iteri (fun r v -> bound := !bound +. (rhs.(r) *. v)) y;
  Array.iteri
    (fun j u ->
      let d = ref (Sparse.obj sp j) in
      for k = col_ptr.(j) to col_ptr.(j + 1) - 1 do
        d := !d -. (y.(row_idx.(k)) *. col_val.(k))
      done;
      if !d < 0. then bound := !bound +. (!d *. u))
    b.upper;
  !bound

let schedule b solution =
  let cdag = Mapping.constraint_dag b.mapping in
  let execution i a =
    let total = Es_util.Futil.sum (Array.map (Problem.value solution) a) in
    let parts = ref [] in
    Array.iteri
      (fun k v ->
        let t = Problem.value solution v in
        if t > 1e-9 *. Float.max total 1. then
          parts := { Schedule.speed = b.levels.(k); time = t } :: !parts)
      a;
    (* repair rounding: rescale part times so the work is exact *)
    let parts = List.rev !parts in
    let work = Es_util.Futil.sum_by (fun (p : Schedule.part) -> p.speed *. p.time) parts in
    let scale = Dag.weight cdag i /. work in
    List.map (fun (p : Schedule.part) -> { p with Schedule.time = p.time *. scale }) parts
  in
  Schedule.make b.mapping
    ~executions:(Array.mapi (fun i execs -> Array.to_list (Array.map (execution i) execs)) b.alpha)

let build_lp ~deadline ~levels mapping = build ~deadline ~levels ~reliability:None mapping

let lp ~deadline ~levels mapping = (build_lp ~deadline ~levels mapping).lp

let crash_basis ~levels mapping =
  let b = build_lp ~deadline:0. ~levels mapping in
  crash b (Problem.to_sparse b.lp)

(* Every solve that has no optimal basis to chain from starts from the
   crash basis. *)
let solve_built b =
  let sp = Problem.to_sparse b.lp in
  fst (Problem.solve_sparse ~basis:(crash b sp) sp)

let solve ~deadline ~levels mapping =
  let b = build_lp ~deadline ~levels mapping in
  match solve_built b with
  | Problem.Solution s -> Some (schedule b s)
  | Problem.Infeasible -> None
  | Problem.Unbounded ->
    (* energy is bounded below by 0: cannot happen on well-formed input *)
    assert false

let energy ~deadline ~levels mapping =
  match solve_built (build_lp ~deadline ~levels mapping) with
  | Problem.Solution s -> Some (Problem.objective s)
  | Problem.Infeasible -> None
  | Problem.Unbounded -> assert false

(* The LPs of a deadline sweep share every coefficient — the deadline
   enters only as the right-hand side of the deadline rows — so the
   sweep builds the LP once and restates it per deadline with
   [Sparse.with_rhs], and the optimal basis at one deadline is a legal
   warm start at the next.  Chaining bases turns a sweep of solves into
   a chain of few-pivot dual-simplex re-optimisations; a step with no
   basis to chain from starts from the crash basis.

   The chain visits the deadlines loosest first.  The crash basis is
   optimal for every deadline past the fmin makespan, so the first LP
   is a few pivots from it, and each later step repairs a slightly
   tighter deadline.  Infeasible deadlines, the tightest, come last. *)
let energy_sweep ?(warm = true) ~deadlines ~levels mapping =
  (* every solve below overwrites the deadline rows' placeholder rhs *)
  let b = build_lp ~deadline:0. ~levels mapping in
  let sp = Problem.to_sparse b.lp in
  let rhs = Sparse.rhs sp in
  let crash = crash b sp in
  let basis = ref None in
  let energies = Array.make (Array.length deadlines) None in
  (* stable: equal deadlines keep their input order *)
  let order = Array.init (Array.length deadlines) Fun.id in
  Array.stable_sort (fun i j -> Float.compare deadlines.(j) deadlines.(i)) order;
  (* feasibility is monotone in the deadline: once one is infeasible,
     every later (no looser) one is too, and stays [None] unsolved *)
  let feasible = ref true in
  Array.iter
    (fun i ->
      if !feasible then begin
        List.iter (fun r -> rhs.(r) <- deadlines.(i)) b.deadline_rows;
        let start = Option.value !basis ~default:crash in
        let outcome, next = Problem.solve_sparse ~basis:start (Sparse.with_rhs sp rhs) in
        if warm then basis := next;
        match outcome with
        | Problem.Solution s -> energies.(i) <- Some (Problem.objective s)
        | Problem.Infeasible -> feasible := false
        | Problem.Unbounded ->
          (* energy is bounded below by 0: cannot happen on well-formed input *)
          assert false
      end)
    order;
  energies

let energy_with_deadline_price ~deadline ~levels mapping =
  let b = build_lp ~deadline ~levels mapping in
  match solve_built b with
  | Problem.Solution s ->
    let duals = Problem.duals s in
    let price = List.fold_left (fun acc r -> acc +. duals.(r)) 0. b.deadline_rows in
    Some (Problem.objective s, price)
  | Problem.Infeasible -> None
  | Problem.Unbounded -> assert false

let two_speed_support ~levels sched =
  let sorted = Array.copy levels in
  Array.sort Float.compare sorted;
  let index f =
    let found = ref (-1) in
    Array.iteri (fun k g -> if Float.abs (g -. f) <= 1e-9 then found := k) sorted;
    !found
  in
  let dag = Schedule.dag sched in
  let ok = ref true in
  for i = 0 to Dag.n dag - 1 do
    List.iter
      (fun e ->
        let speeds =
          List.sort_uniq Float.compare
            (List.map (fun (p : Schedule.part) -> p.speed) e)
        in
        match speeds with
        | [] | [ _ ] -> ()
        | [ f1; f2 ] ->
          let k1 = index f1 and k2 = index f2 in
          if k1 < 0 || k2 < 0 || abs (k1 - k2) <> 1 then ok := false
        | _ -> ok := false)
      (Schedule.executions sched i)
  done;
  !ok

let emulate_continuous ~levels ~speeds mapping =
  let dag = Mapping.dag mapping in
  let n = Dag.n dag in
  assert (Array.length speeds = n);
  let sorted = Array.copy levels in
  Array.sort Float.compare sorted;
  let lo0 = sorted.(0) and hi0 = sorted.(Array.length sorted - 1) in
  let bracket f =
    if f < lo0 -. 1e-12 || f > hi0 +. 1e-12 then None
    else begin
      let f = Es_util.Futil.clamp ~lo:lo0 ~hi:hi0 f in
      let below = ref lo0 and above = ref hi0 in
      Array.iter
        (fun g ->
          if g <= f +. 1e-12 && g > !below then below := g;
          if g >= f -. 1e-12 && g < !above then above := g)
        sorted;
      Some (!below, !above)
    end
  in
  let exception Out_of_range in
  match
    Array.init n (fun i ->
        let w = Dag.weight dag i and f = speeds.(i) in
        match bracket f with
        | None -> raise Out_of_range
        | Some (flo, fhi) ->
          if Float.abs (fhi -. flo) <= 1e-12 then
            [ [ { Schedule.speed = flo; time = w /. flo } ] ]
          else begin
            (* time-matching shares: t_lo + t_hi = w/f and
               f_lo·t_lo + f_hi·t_hi = w *)
            let total = w /. f in
            let t_hi = (w -. (flo *. total)) /. (fhi -. flo) in
            let t_lo = total -. t_hi in
            let parts =
              List.filter
                (fun (p : Schedule.part) -> p.time > 1e-12 *. total)
                [ { Schedule.speed = flo; time = t_lo }; { Schedule.speed = fhi; time = t_hi } ]
            in
            [ parts ]
          end)
  with
  | executions -> Some (Schedule.make mapping ~executions)
  | exception Out_of_range -> None
