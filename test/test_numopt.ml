(* Tests for scalar search and the interior-point solver, cross-checked
   against analytic optima of small convex programs, and for its
   sparse Cholesky against the dense one it replaced. *)

module Scalar = Es_numopt.Scalar
module Barrier = Es_numopt.Barrier
module Chol = Es_numopt.Chol
module Rng = Es_util.Rng

let check_float tol = Alcotest.(check (float tol))

let test_bisect_root () =
  let r = Scalar.bisect ~tol:1e-14 ~f:(fun x -> (x *. x) -. 2.) ~lo:0. ~hi:2. in
  check_float 1e-10 "sqrt 2" (sqrt 2.) r

let test_bisect_endpoint_roots () =
  check_float 1e-12 "root at lo" 1.
    (Scalar.bisect ?tol:None ~f:(fun x -> x -. 1.) ~lo:1. ~hi:5.);
  check_float 1e-12 "root at hi" 5.
    (Scalar.bisect ?tol:None ~f:(fun x -> x -. 5.) ~lo:1. ~hi:5.)

let test_bisect_sign_check () =
  Alcotest.check_raises "same sign"
    (Invalid_argument "Scalar.bisect: same sign at both endpoints") (fun () ->
      ignore (Scalar.bisect ?tol:None ~f:(fun x -> x +. 10.) ~lo:0. ~hi:1.))

let test_root_monotone_clamps () =
  (* root of x - 10 on [0, 1] lies above: clamp to hi *)
  check_float 1e-12 "clamps high" 1.
    (Scalar.root_monotone ?tol:None ~f:(fun x -> x -. 10.) ~lo:0. ~hi:1.);
  check_float 1e-12 "clamps low" 0.
    (Scalar.root_monotone ?tol:None ~f:(fun x -> x +. 10.) ~lo:0. ~hi:1.)

let test_golden_quadratic () =
  let x = Scalar.golden_min ~tol:1e-12 ~f:(fun x -> (x -. 1.7) ** 2.) ~lo:0. ~hi:5. in
  check_float 1e-6 "argmin" 1.7 x

let test_golden_asymmetric () =
  (* minimise x + 4/x on [0.5, 10]: argmin = 2 *)
  let x = Scalar.golden_min ~tol:1e-12 ~f:(fun x -> x +. (4. /. x)) ~lo:0.5 ~hi:10. in
  check_float 1e-5 "argmin" 2. x

(* Barrier: min (x-2)² + (y-3)² s.t. x + y <= 3, x,y >= 0.
   Unconstrained optimum (2,3) is cut by the line; the projection onto
   x + y = 3 is (1, 2). *)
let quadratic_objective () =
  {
    Barrier.f = (fun x -> ((x.(0) -. 2.) ** 2.) +. ((x.(1) -. 3.) ** 2.));
    grad = (fun x -> [| 2. *. (x.(0) -. 2.); 2. *. (x.(1) -. 3.) |]);
    hess = (fun _ -> [| 2.; 2. |]);
  }

(* CSR rows of a dense matrix, zeros dropped *)
let csr dense =
  let rows =
    Array.map
      (fun row -> List.filter (fun (_, v) -> v <> 0.) (List.mapi (fun j v -> (j, v)) (Array.to_list row)))
      dense
  in
  let row_ptr = Array.make (Array.length rows + 1) 0 in
  Array.iteri (fun r row -> row_ptr.(r + 1) <- row_ptr.(r) + List.length row) rows;
  let entries = Array.of_list (List.concat (Array.to_list rows)) in
  { Barrier.row_ptr; col_idx = Array.map fst entries; value = Array.map snd entries }

let simplex_region =
  ( csr [| [| 1.; 1. |]; [| -1.; 0. |]; [| 0.; -1. |] |],
    [| 3.; 0.; 0. |] )

let test_barrier_projection () =
  let a, b = simplex_region in
  let x = Barrier.minimize (quadratic_objective ()) ~a ~b ~x0:[| 0.5; 0.5 |] in
  check_float 1e-5 "x" 1. x.(0);
  check_float 1e-5 "y" 2. x.(1)

let test_barrier_interior_optimum () =
  (* loose constraint: optimum interior, should reach (2,3) *)
  let a = csr [| [| 1.; 1. |] |] and b = [| 100. |] in
  let x = Barrier.minimize (quadratic_objective ()) ~a ~b ~x0:[| 1.; 1. |] in
  check_float 1e-4 "x free" 2. x.(0);
  check_float 1e-4 "y free" 3. x.(1)

(* a start outside the region, on its boundary, or far outside *)
let test_barrier_rejects_infeasible_start () =
  let a, b = simplex_region in
  List.iter
    (fun (label, x0) ->
      Alcotest.check_raises label Barrier.Not_strictly_feasible (fun () ->
          ignore (Barrier.minimize (quadratic_objective ()) ~a ~b ~x0)))
    [ ("infeasible start", [| 2.; 2. |]); ("on boundary", [| 0.; 1. |]); ("outside", [| 5.; 5. |]) ]

(* energy-shaped objective: min Σ w³/d² s.t. Σ d <= D, d >= w/fmax —
   the single-chain BI-CRIT program, whose optimum is uniform speed. *)
let test_barrier_energy_chain () =
  let w = [| 1.; 2.; 3. |] in
  let d_total = 12. in
  let n = 3 in
  let cube x = x *. x *. x in
  let obj =
    {
      Barrier.f =
        (fun d ->
          let acc = ref 0. in
          for i = 0 to n - 1 do
            acc := !acc +. (cube w.(i) /. (d.(i) *. d.(i)))
          done;
          !acc);
      grad = (fun d -> Array.init n (fun i -> -2. *. cube w.(i) /. cube d.(i)));
      hess = (fun d -> Array.init n (fun i -> 6. *. cube w.(i) /. (d.(i) *. d.(i) *. d.(i) *. d.(i))));
    }
  in
  let a =
    csr
      (Array.append
         [| Array.make n 1. |]
         (Array.init n (fun i -> Array.init n (fun j -> if i = j then -1. else 0.))))
  in
  let b = Array.append [| d_total |] (Array.map (fun wi -> -.wi /. 10.) w) in
  let x0 = Array.map (fun wi -> d_total *. wi /. 6. *. 0.9) w in
  let d = Barrier.minimize obj ~a ~b ~x0 in
  (* optimal: common speed Σw/D = 0.5, so d_i = 2 w_i *)
  for i = 0 to n - 1 do
    check_float 1e-4 "duration proportional to weight" (2. *. w.(i)) d.(i)
  done

(* min (x0 − 5)² s.t. x0 ≤ x1 + x2 ≤ 1, |x1|, |x2| ≤ 10: the optimum
   is x0 = 1 on a face where only x1 + x2 is determined, so near it the
   Newton matrix is singular along (0, 1, −1) but for its 10⁻¹² shift,
   which the active rows' weights round away.  Five iterations meet a
   non-positive pivot and factor the matrix again with a shifted
   diagonal; the solve still lands on the optimum. *)
let test_barrier_degenerate_face () =
  let module Obs = Es_obs.Obs in
  let obj =
    {
      Barrier.f = (fun x -> (x.(0) -. 5.) ** 2.);
      grad = (fun x -> [| 2. *. (x.(0) -. 5.); 0.; 0. |]);
      hess = (fun _ -> [| 2.; 0.; 0. |]);
    }
  in
  let a =
    csr
      [|
        [| 1.; -1.; -1. |];
        [| 0.; 1.; 1. |];
        [| 0.; -1.; 0. |];
        [| 0.; 0.; -1. |];
        [| 0.; 1.; 0. |];
        [| 0.; 0.; 1. |];
      |]
  in
  let b = [| 0.; 1.; 10.; 10.; 10.; 10. |] in
  let shifted = Obs.counter "barrier_shifted_factors" in
  Obs.reset ();
  Obs.enable ();
  let x =
    Fun.protect ~finally:(fun () -> Obs.disable ()) @@ fun () ->
    Barrier.minimize obj ~a ~b ~x0:[| 0.; 0.2; 0.3 |]
  in
  Alcotest.(check int) "shifted factors" 5 (Obs.value shifted);
  check_float 1e-12 "x0" 1. x.(0);
  check_float 1e-12 "x1 + x2" 1. (x.(1) +. x.(2))

(* The dense Cholesky and triangular solves the barrier's Newton steps
   used before they went sparse: the reference for the sparse factor. *)
exception Not_positive_definite

let dense_cholesky a =
  let n = Array.length a in
  let l = Array.make_matrix n n 0. in
  for i = 0 to n - 1 do
    for j = 0 to i do
      let acc = ref a.(i).(j) in
      for k = 0 to j - 1 do
        acc := !acc -. (l.(i).(k) *. l.(j).(k))
      done;
      if i = j then begin
        if !acc <= 0. then raise Not_positive_definite;
        l.(i).(j) <- sqrt !acc
      end
      else l.(i).(j) <- !acc /. l.(j).(j)
    done
  done;
  l

let dense_cholesky_solve l b =
  let n = Array.length l in
  let y = Array.make n 0. in
  for i = 0 to n - 1 do
    let acc = ref b.(i) in
    for k = 0 to i - 1 do
      acc := !acc -. (l.(i).(k) *. y.(k))
    done;
    y.(i) <- !acc /. l.(i).(i)
  done;
  let x = Array.make n 0. in
  for i = n - 1 downto 0 do
    let acc = ref y.(i) in
    for k = i + 1 to n - 1 do
      acc := !acc -. (l.(k).(i) *. x.(k))
    done;
    x.(i) <- !acc /. l.(i).(i)
  done;
  x

(* H = diag(d) + Aᵀ W A over random rows of 1-3 nonzeros, accumulated
   like the barrier's Hessian ((w·a_j)·a_k, rows in order, both
   triangles).  Weights span 10⁰-10¹² against a diagonal down to 10⁻¹²,
   so some matrices are singular to working precision: about one in
   twenty hits a non-positive pivot. *)
let qcheck_sparse_cholesky_bitwise =
  QCheck.Test.make ~name:"sparse cholesky = dense cholesky, bit for bit" ~count:300
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Rng.create ~seed in
      let n = 1 + Rng.int rng 40 in
      let rows =
        Array.init (Rng.int rng (3 * n)) (fun _ ->
            List.init (1 + Rng.int rng 3) (fun _ -> Rng.int rng n)
            |> List.sort_uniq Int.compare
            |> List.map (fun j -> (j, Rng.uniform_in rng (-2.) 2.)))
      in
      let h =
        Array.init n (fun i ->
            Array.init n (fun j ->
                if i <> j then 0.
                else if Rng.int rng 2 = 0 then 1e-12 (* like the barrier's start times *)
                else 10. ** Rng.uniform_in rng (-12.) 0.))
      in
      Array.iter
        (fun row ->
          let w = 10. ** Rng.uniform_in rng 0. 12. in
          List.iter
            (fun (j, aj) ->
              let wa = w *. aj in
              List.iter (fun (k, ak) -> h.(j).(k) <- h.(j).(k) +. (wa *. ak)) row)
            row)
        rows;
      (* the lower pattern by rows, and its values read off h *)
      let below = Array.init n (fun i -> [ i ]) in
      Array.iter
        (fun row ->
          List.iter (fun (j, _) -> List.iter (fun (k, _) -> if k < j then below.(j) <- k :: below.(j)) row) row)
        rows;
      let pattern = Array.map (fun ks -> Array.of_list (List.sort_uniq Int.compare ks)) below in
      let row_ptr = Array.make (n + 1) 0 in
      Array.iteri (fun i ks -> row_ptr.(i + 1) <- row_ptr.(i) + Array.length ks) pattern;
      let col_idx = Array.concat (Array.to_list pattern) in
      let values = Array.concat (Array.to_list (Array.mapi (fun i ks -> Array.map (fun k -> h.(i).(k)) ks) pattern)) in
      let b = Array.init n (fun _ -> Rng.uniform_in rng (-1.) 1.) in
      let reference =
        match dense_cholesky h with
        | l -> Some (dense_cholesky_solve l b)
        | exception Not_positive_definite -> None
      in
      let chol = Chol.analyze ~n ~row_ptr ~col_idx in
      let sparse =
        match Chol.factor chol values with
        | () -> Some (Chol.solve chol b)
        | exception Chol.Not_positive_definite -> None
      in
      let same u v = Int64.equal (Int64.bits_of_float u) (Int64.bits_of_float v) in
      match (reference, sparse) with
      | Some x, Some y -> Array.for_all2 same x y
      | None, None -> true
      | _ -> false)

let suite =
  ( "numopt",
    [
      Alcotest.test_case "bisect sqrt2" `Quick test_bisect_root;
      Alcotest.test_case "bisect endpoint roots" `Quick test_bisect_endpoint_roots;
      Alcotest.test_case "bisect sign check" `Quick test_bisect_sign_check;
      Alcotest.test_case "root_monotone clamps" `Quick test_root_monotone_clamps;
      Alcotest.test_case "golden quadratic" `Quick test_golden_quadratic;
      Alcotest.test_case "golden asymmetric" `Quick test_golden_asymmetric;
      Alcotest.test_case "barrier projection" `Quick test_barrier_projection;
      Alcotest.test_case "barrier interior optimum" `Quick test_barrier_interior_optimum;
      Alcotest.test_case "barrier rejects bad start" `Quick test_barrier_rejects_infeasible_start;
      Alcotest.test_case "barrier energy chain" `Quick test_barrier_energy_chain;
      Alcotest.test_case "barrier degenerate face" `Quick test_barrier_degenerate_face;
      QCheck_alcotest.to_alcotest qcheck_sparse_cholesky_bitwise;
    ] )
