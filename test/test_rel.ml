(* Tests for the Eq. (1) reliability model: monotonicity, the
   re-execution algebra, the minimum re-execution speed, and the
   VDD-hopping failure accounting. *)

let rel = Rel.make ~lambda0:1e-4 ~sensitivity:3. ~fmin:0.2 ~fmax:1.0 ~frel:0.8 ()

let check_float tol = Alcotest.(check (float tol))

let test_make_validates () =
  Alcotest.check_raises "frel range" (Invalid_argument "Rel.make: frel outside [fmin, fmax]")
    (fun () -> ignore (Rel.make ~frel:2. ~fmin:0.2 ~fmax:1. ()))

let test_make_rejects_nan () =
  let rejects what f =
    Alcotest.(check bool) what true
      (match f () with exception Invalid_argument _ -> true | _ -> false)
  in
  rejects "NaN frel" (fun () -> Rel.make ~frel:Float.nan ~fmin:0.2 ~fmax:1. ());
  rejects "NaN lambda0" (fun () -> Rel.make ~lambda0:Float.nan ~fmin:0.2 ~fmax:1. ());
  rejects "NaN sensitivity" (fun () -> Rel.make ~sensitivity:Float.nan ~fmin:0.2 ~fmax:1. ())

let test_rate_at_fmax () =
  (* at f = fmax the exponent vanishes: rate = lambda0 *)
  check_float 1e-15 "rate fmax" 1e-4 (Rel.rate rel ~f:1.0)

let test_rate_at_fmin () =
  (* at f = fmin the exponent is d: rate = lambda0·e^d *)
  check_float 1e-12 "rate fmin" (1e-4 *. exp 3.) (Rel.rate rel ~f:0.2)

let test_rate_decreasing_in_speed () =
  let prev = ref infinity in
  List.iter
    (fun f ->
      let r = Rel.rate rel ~f in
      Alcotest.(check bool) "decreasing" true (r < !prev);
      prev := r)
    [ 0.2; 0.4; 0.6; 0.8; 1.0 ]

let test_failure_prob_formula () =
  (* eps = rate(f)·w/f *)
  let f = 0.5 and w = 2. in
  check_float 1e-15 "eps" (Rel.rate rel ~f *. (w /. f)) (Rel.failure_prob rel ~f ~w)

let test_reliability_complement () =
  let f = 0.9 and w = 1. in
  check_float 1e-12 "R = 1 - eps" (1. -. Rel.failure_prob rel ~f ~w)
    (Rel.reliability rel ~f ~w)

(* A single execution meets the constraint iff ε(f) ≤ ε(f_rel), that is
   iff f ≥ f_rel. *)
let test_single_meets_iff_at_least_frel () =
  let w = 3. in
  let meets f = Rel.failure_prob rel ~f ~w <= Rel.target_failure rel ~w in
  Alcotest.(check bool) "at frel" true (meets 0.8);
  Alcotest.(check bool) "above frel" true (meets 0.95);
  Alcotest.(check bool) "below frel" false (meets 0.5)

(* Two executions meet it iff ε(f1)·ε(f2) ≤ ε(f_rel), up to the root
   finder's relative slack. *)
let meets_reexec r ~f ~w =
  Rel.reexec_failure r ~f1:f ~f2:f ~w <= Rel.target_failure r ~w *. (1. +. 1e-9)

let test_reexec_product () =
  let w = 2. in
  check_float 1e-18 "product"
    (Rel.failure_prob rel ~f:0.4 ~w *. Rel.failure_prob rel ~f:0.6 ~w)
    (Rel.reexec_failure rel ~f1:0.4 ~f2:0.6 ~w)

let test_reexec_much_slower_ok () =
  (* re-execution admits speeds far below frel *)
  let w = 2. in
  match Rel.min_reexec_speed rel ~w with
  | None -> Alcotest.fail "must exist"
  | Some flo ->
    Alcotest.(check bool) "far below frel" true (flo < 0.8);
    Alcotest.(check bool) "meets at flo" true (meets_reexec rel ~f:flo ~w);
    (* and is tight: 2% below flo must violate (unless clamped at fmin) *)
    if flo > rel.Rel.fmin +. 1e-9 then
      Alcotest.(check bool) "tight" false
        (meets_reexec rel ~f:(flo *. 0.98) ~w)

let test_min_reexec_speed_root_property () =
  let w = 5. in
  match Rel.min_reexec_speed rel ~w with
  | None -> Alcotest.fail "must exist"
  | Some flo ->
    if flo > rel.Rel.fmin +. 1e-9 then begin
      let eps2 = Rel.reexec_failure rel ~f1:flo ~f2:flo ~w in
      let target = Rel.target_failure rel ~w in
      Alcotest.(check bool) "eps² = target at the root" true
        (Float.abs (eps2 -. target) < 1e-9 *. target)
    end

let test_min_reexec_speed_monotone_in_weight () =
  (* heavier tasks need faster re-execution *)
  let speeds =
    List.filter_map (fun w -> Rel.min_reexec_speed rel ~w) [ 0.5; 1.; 2.; 4.; 8. ]
  in
  let rec increasing = function
    | a :: (b :: _ as rest) -> a <= b +. 1e-12 && increasing rest
    | _ -> true
  in
  Alcotest.(check bool) "monotone" true (increasing speeds)

let test_vdd_failure_single_part_consistent () =
  let w = 2. and f = 0.5 in
  check_float 1e-15 "one part = failure_prob" (Rel.failure_prob rel ~f ~w)
    (Rel.vdd_failure rel ~parts:[ (f, w /. f) ])

let test_vdd_failure_additive () =
  let parts = [ (0.4, 1.); (0.8, 2.) ] in
  check_float 1e-15 "additive"
    (Rel.rate rel ~f:0.4 +. (2. *. Rel.rate rel ~f:0.8))
    (Rel.vdd_failure rel ~parts)

let test_zero_sensitivity_flat_rate () =
  let flat = Rel.make ~lambda0:1e-3 ~sensitivity:0. ~fmin:0.2 ~fmax:1. () in
  check_float 1e-15 "rate f=0.2" 1e-3 (Rel.rate flat ~f:0.2);
  check_float 1e-15 "rate f=1.0" 1e-3 (Rel.rate flat ~f:1.0)

let qcheck_reexec_floor_feasible =
  QCheck.Test.make ~name:"min_reexec_speed always meets the constraint" ~count:200
    QCheck.(pair (float_range 0.1 10.) (float_range 0.25 1.0))
    (fun (w, frel) ->
      let r = Rel.make ~lambda0:1e-4 ~sensitivity:3. ~fmin:0.2 ~fmax:1.0 ~frel () in
      match Rel.min_reexec_speed r ~w with
      | None -> true
      | Some flo -> meets_reexec r ~f:flo ~w)

let suite =
  ( "reliability",
    [
      Alcotest.test_case "make validates" `Quick test_make_validates;
      Alcotest.test_case "make rejects NaN" `Quick test_make_rejects_nan;
      Alcotest.test_case "rate at fmax" `Quick test_rate_at_fmax;
      Alcotest.test_case "rate at fmin" `Quick test_rate_at_fmin;
      Alcotest.test_case "rate decreasing in speed" `Quick test_rate_decreasing_in_speed;
      Alcotest.test_case "failure prob formula" `Quick test_failure_prob_formula;
      Alcotest.test_case "reliability complement" `Quick test_reliability_complement;
      Alcotest.test_case "single needs frel" `Quick test_single_meets_iff_at_least_frel;
      Alcotest.test_case "re-exec product" `Quick test_reexec_product;
      Alcotest.test_case "re-exec runs slower" `Quick test_reexec_much_slower_ok;
      Alcotest.test_case "min_reexec root property" `Quick test_min_reexec_speed_root_property;
      Alcotest.test_case "min_reexec monotone in weight" `Quick
        test_min_reexec_speed_monotone_in_weight;
      Alcotest.test_case "vdd single part" `Quick test_vdd_failure_single_part_consistent;
      Alcotest.test_case "vdd additive" `Quick test_vdd_failure_additive;
      Alcotest.test_case "zero sensitivity" `Quick test_zero_sensitivity_flat_rate;
      QCheck_alcotest.to_alcotest qcheck_reexec_floor_feasible;
    ] )
