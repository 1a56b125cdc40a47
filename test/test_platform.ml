(* Tests for the speed models: validation, level sets, bounds and
   admissibility. *)

let check_float tol = Alcotest.(check (float tol))

let cont = Speed.continuous ~fmin:0.2 ~fmax:1.0
let disc = Speed.discrete [| 0.6; 0.2; 1.0 |] (* unsorted on purpose *)
let incr = Speed.incremental ~fmin:0.2 ~fmax:1.0 ~delta:0.2

let test_constructors_validate () =
  Alcotest.check_raises "bad range" (Invalid_argument "Speed: need 0 < fmin <= fmax")
    (fun () -> ignore (Speed.continuous ~fmin:2. ~fmax:1.));
  Alcotest.check_raises "empty set" (Invalid_argument "Speed: empty speed set") (fun () ->
      ignore (Speed.discrete [||]));
  Alcotest.check_raises "bad delta" (Invalid_argument "Speed: need delta > 0") (fun () ->
      ignore (Speed.incremental ~fmin:0.1 ~fmax:1. ~delta:0.))

let test_discrete_sorted_dedup () =
  let d = Speed.discrete [| 0.5; 0.2; 0.5; 1.0 |] in
  match Speed.levels d with
  | Some l -> Alcotest.(check (array (float 1e-12))) "sorted unique" [| 0.2; 0.5; 1.0 |] l
  | None -> Alcotest.fail "levels expected"

let test_bounds () =
  check_float 1e-12 "cont fmin" 0.2 (Speed.fmin cont);
  check_float 1e-12 "cont fmax" 1.0 (Speed.fmax cont);
  check_float 1e-12 "disc fmin" 0.2 (Speed.fmin disc);
  check_float 1e-12 "disc fmax" 1.0 (Speed.fmax disc)

let test_incremental_grid () =
  match Speed.levels incr with
  | Some l ->
    Alcotest.(check int) "5 levels" 5 (Array.length l);
    check_float 1e-9 "first" 0.2 l.(0);
    check_float 1e-9 "last" 1.0 l.(4)
  | None -> Alcotest.fail "levels expected"

let test_admissible () =
  Alcotest.(check bool) "cont inside" true (Speed.admissible ?tol:None cont 0.5);
  Alcotest.(check bool) "cont outside" false (Speed.admissible ?tol:None cont 1.5);
  Alcotest.(check bool) "disc level" true (Speed.admissible ?tol:None disc 0.6);
  Alcotest.(check bool) "disc between" false (Speed.admissible ?tol:None disc 0.5);
  Alcotest.(check bool) "incr grid point" true (Speed.admissible ?tol:None incr 0.6);
  Alcotest.(check bool) "incr off grid" false (Speed.admissible ?tol:None incr 0.5)

let suite =
  ( "platform",
    [
      Alcotest.test_case "constructor validation" `Quick test_constructors_validate;
      Alcotest.test_case "discrete sorted+dedup" `Quick test_discrete_sorted_dedup;
      Alcotest.test_case "bounds" `Quick test_bounds;
      Alcotest.test_case "incremental grid" `Quick test_incremental_grid;
      Alcotest.test_case "admissible" `Quick test_admissible;
    ] )
