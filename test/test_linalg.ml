(* Tests for the two factorisations behind the barrier's Newton steps
   (Es_numopt's sparse Cholesky and its dense LU fallback), including
   property tests against random matrices. *)

module Chol = Es_numopt.Chol
module Dense_lu = Es_numopt.Dense_lu

let dot x y =
  let acc = ref 0. in
  Array.iteri (fun i xi -> acc := !acc +. (xi *. y.(i))) x;
  !acc

let mulv a x = Array.map (fun row -> dot row x) a

let random_spd rng n =
  (* B·Bᵀ + n·I is SPD for random B *)
  let b = Array.init n (fun _ -> Array.init n (fun _ -> Es_util.Rng.uniform_in rng (-1.) 1.)) in
  Array.init n (fun i ->
      Array.init n (fun j -> dot b.(i) b.(j) +. if i = j then float_of_int n else 0.))

(* sparse Cholesky of a dense matrix: every lower entry in the pattern *)
let factor_dense a =
  let n = Array.length a in
  let row_ptr = Array.init (n + 1) (fun i -> i * (i + 1) / 2) in
  let col_idx = Array.concat (List.init n (fun i -> Array.init (i + 1) Fun.id)) in
  let chol = Chol.analyze ~n ~row_ptr ~col_idx in
  Chol.factor chol (Array.concat (List.init n (fun i -> Array.sub a.(i) 0 (i + 1))));
  chol

let test_cholesky_roundtrip () =
  let rng = Es_util.Rng.create ~seed:21 in
  for n = 1 to 8 do
    let a = random_spd rng n in
    let x_true = Array.init n (fun i -> float_of_int (i + 1)) in
    let x = Chol.solve (factor_dense a) (mulv a x_true) in
    for i = 0 to n - 1 do
      Alcotest.(check (float 1e-8)) "l·lᵀ x = a x" x_true.(i) x.(i)
    done
  done

let test_cholesky_rejects_indefinite () =
  let a = [| [| 1.; 2. |]; [| 2.; 1. |] |] in
  (* eigenvalues 3 and -1 *)
  Alcotest.check_raises "not PD" Chol.Not_positive_definite (fun () ->
      ignore (factor_dense a))

let test_solve_roundtrip () =
  let rng = Es_util.Rng.create ~seed:22 in
  for n = 1 to 8 do
    let a = Array.init n (fun _ -> Array.init n (fun _ -> Es_util.Rng.uniform_in rng (-2.) 2.)) in
    (* make it comfortably nonsingular *)
    for i = 0 to n - 1 do
      a.(i).(i) <- a.(i).(i) +. 5.
    done;
    let x_true = Array.init n (fun i -> float_of_int (i + 1)) in
    let x = Dense_lu.solve a (mulv a x_true) in
    for i = 0 to n - 1 do
      Alcotest.(check (float 1e-8)) "lu solve" x_true.(i) x.(i)
    done
  done

let test_solve_spd_matches_lu () =
  let rng = Es_util.Rng.create ~seed:23 in
  let a = random_spd rng 6 in
  let b = Array.init 6 (fun i -> float_of_int i +. 0.5) in
  let x1 = Chol.solve (factor_dense a) b and x2 = Dense_lu.solve a b in
  for i = 0 to 5 do
    Alcotest.(check (float 1e-8)) "cholesky = lu" x2.(i) x1.(i)
  done

let test_singular_detected () =
  let a = [| [| 1.; 2. |]; [| 2.; 4. |] |] in
  Alcotest.check_raises "singular" Dense_lu.Singular (fun () ->
      ignore (Dense_lu.solve a [| 1.; 1. |]))

let qcheck_solve_residual =
  QCheck.Test.make ~name:"lu solve residual small" ~count:100
    QCheck.(int_bound 1000)
    (fun seed ->
      let rng = Es_util.Rng.create ~seed in
      let n = 1 + Es_util.Rng.int rng 10 in
      let a = Array.init n (fun _ -> Array.init n (fun _ -> Es_util.Rng.uniform_in rng (-1.) 1.)) in
      for i = 0 to n - 1 do
        a.(i).(i) <- a.(i).(i) +. float_of_int n
      done;
      let b = Array.init n (fun _ -> Es_util.Rng.uniform_in rng (-1.) 1.) in
      let x = Dense_lu.solve a b in
      Array.for_all2 (fun ax bi -> Float.abs (ax -. bi) < 1e-8) (mulv a x) b)

let suite =
  ( "linalg",
    [
      Alcotest.test_case "cholesky roundtrip" `Quick test_cholesky_roundtrip;
      Alcotest.test_case "cholesky rejects indefinite" `Quick test_cholesky_rejects_indefinite;
      Alcotest.test_case "lu solve roundtrip" `Quick test_solve_roundtrip;
      Alcotest.test_case "solve_spd matches lu" `Quick test_solve_spd_matches_lu;
      Alcotest.test_case "singular detected" `Quick test_singular_detected;
      QCheck_alcotest.to_alcotest qcheck_solve_residual;
    ] )
