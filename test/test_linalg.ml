(* Tests for the factorisation behind the barrier's Newton steps
   (Es_numopt's sparse Cholesky) on small dense matrices; test_numopt
   checks it bit for bit against a dense Cholesky on random sparse
   ones. *)

module Chol = Es_numopt.Chol

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

let suite =
  ( "linalg",
    [
      Alcotest.test_case "cholesky roundtrip" `Quick test_cholesky_roundtrip;
      Alcotest.test_case "cholesky rejects indefinite" `Quick test_cholesky_rejects_indefinite;
    ] )
