(* Tests for DISCRETE and INCREMENTAL BI-CRIT (R5/R6): the exact
   branch-and-bound, the round-up approximation and its proven ratio. *)

let levels = [| 0.25; 0.5; 0.75; 1.0 |]

let small_instance ~seed =
  let rng = Es_util.Rng.create ~seed in
  let dag = Generators.random_layered rng ~layers:3 ~width:3 ~density:0.5 ~wlo:1. ~whi:3. in
  let mapping = List_sched.schedule dag ~p:2 ~priority:List_sched.Bottom_level in
  let dmin = List_sched.makespan_at_speed mapping ~f:1. in
  (mapping, dmin)

let brute_force_discrete ~deadline ~levels mapping =
  (* reference: enumerate every speed assignment *)
  let cdag = Mapping.constraint_dag mapping in
  let n = Dag.n cdag in
  let speeds = Array.make n levels.(0) in
  let best = ref None in
  let rec enum i =
    if i = n then begin
      let durations = Array.init n (fun j -> Dag.weight cdag j /. speeds.(j)) in
      if Dag.critical_path_length cdag ~durations <= deadline *. (1. +. 1e-12) then begin
        let e = ref 0. in
        for j = 0 to n - 1 do
          e := !e +. (Dag.weight cdag j *. speeds.(j) *. speeds.(j))
        done;
        match !best with
        | Some b when b <= !e -> ()
        | _ -> best := Some !e
      end
    end
    else
      Array.iter
        (fun f ->
          speeds.(i) <- f;
          enum (i + 1))
        levels
  in
  enum 0;
  !best

let test_exact_matches_brute_force () =
  List.iter
    (fun seed ->
      let mapping, dmin = small_instance ~seed in
      if Dag.n (Mapping.dag mapping) <= 8 then begin
        let deadline = 1.5 *. dmin in
        let bb =
          Option.map
            (fun (r : Bicrit_discrete.exact) -> r.energy)
            (Bicrit_discrete.solve_exact ~deadline ~levels mapping)
        in
        let bf = brute_force_discrete ~deadline ~levels mapping in
        match (bb, bf) with
        | Some a, Some b ->
          Alcotest.(check (float 1e-9)) (Printf.sprintf "seed %d optimal" seed) b a
        | None, None -> ()
        | _ -> Alcotest.fail "feasibility disagreement"
      end)
    [ 61; 62; 63; 64; 65 ]

let test_exact_feasible_schedule () =
  let mapping, dmin = small_instance ~seed:66 in
  let deadline = 1.4 *. dmin in
  match Bicrit_discrete.solve_exact ~deadline ~levels mapping with
  | None -> Alcotest.fail "expected feasible"
  | Some { schedule; _ } ->
    Alcotest.(check bool) "validator accepts" true
      (Validate.is_feasible ~deadline ~model:(Speed.discrete levels) schedule)

let test_exact_infeasible () =
  let mapping, dmin = small_instance ~seed:67 in
  Alcotest.(check bool) "tight deadline" true
    (Bicrit_discrete.solve_exact ~deadline:(0.3 *. dmin) ~levels mapping
    = None)

let test_exact_at_exact_dmin () =
  (* deadline exactly D_min: everything at fmax is the only choice *)
  let mapping, dmin = small_instance ~seed:68 in
  match Bicrit_discrete.solve_exact ~deadline:dmin ~levels mapping with
  | None -> Alcotest.fail "feasible at dmin"
  | Some { schedule; _ } ->
    let dag = Mapping.dag mapping in
    for i = 0 to Dag.n dag - 1 do
      match Schedule.executions schedule i with
      | [ [ p ] ] ->
        (* most tasks must run at fmax; all must be at some level *)
        Alcotest.(check bool) "level speed" true
          (Array.exists (fun l -> Float.abs (l -. p.Schedule.speed) < 1e-9) levels)
      | _ -> Alcotest.fail "single execution expected"
    done

let test_round_up_feasible_and_bounded () =
  List.iter
    (fun seed ->
      let mapping, dmin = small_instance ~seed in
      let deadline = 1.6 *. dmin in
      match
        ( Bicrit_discrete.round_up ~deadline ~levels mapping,
          Bicrit_discrete.solve_exact ~deadline ~levels mapping )
      with
      | Some approx, Some exact ->
        Alcotest.(check bool) "feasible" true
          (Validate.is_feasible ~deadline ~model:(Speed.discrete levels) approx);
        let ea = Schedule.energy approx in
        Alcotest.(check bool) "approx >= optimal" true
          (ea >= exact.Bicrit_discrete.energy -. 1e-9);
        Alcotest.(check bool)
          (Printf.sprintf "ratio %.3f within bound %.3f" (ea /. exact.energy)
             (Bicrit_discrete.ratio_bound ~levels))
          true
          (ea <= exact.Bicrit_discrete.energy *. Bicrit_discrete.ratio_bound ~levels *. (1. +. 1e-6))
      | None, None -> ()
      | Some _, None -> Alcotest.fail "approx feasible but exact infeasible?"
      | None, Some _ ->
        (* round-up can fail when the continuous optimum needs more
           than the top level; with ratio sweeps this does not occur
           at slack 1.6 *)
        Alcotest.fail "round-up failed on feasible instance")
    [ 71; 72; 73 ]

let test_ratio_bound_value () =
  Alcotest.(check (float 1e-9)) "max ratio is 2² over the gaps" 4.
    (Bicrit_discrete.ratio_bound ~levels:[| 0.25; 0.5; 1.0 |])

(* INCREMENTAL *)

let test_incremental_grid () =
  let g = Bicrit_incremental.grid ~fmin:0.2 ~fmax:1.0 ~delta:0.2 in
  Alcotest.(check int) "5 points" 5 (Array.length g)

let test_incremental_bound_formula () =
  Alcotest.(check (float 1e-9)) "without K" 2.25
    (Bicrit_incremental.bound ~fmin:0.2 ~delta:0.1 ~k:None);
  Alcotest.(check (float 1e-9)) "with K = 1" 9.
    (Bicrit_incremental.bound ~fmin:0.2 ~delta:0.1 ~k:(Some 1))

let test_incremental_approx_within_bound () =
  List.iter
    (fun delta ->
      let mapping, dmin = small_instance ~seed:74 in
      let deadline = 1.7 *. dmin in
      let fmin = 0.2 and fmax = 1.0 in
      match Bicrit_incremental.approximate ~deadline ~fmin ~fmax ~delta mapping with
      | None -> Alcotest.fail "feasible"
      | Some sched ->
        Alcotest.(check bool) "feasible schedule" true
          (Validate.is_feasible ~deadline ~model:(Speed.incremental ~fmin ~fmax ~delta) sched);
        let n = Dag.n (Mapping.dag mapping) in
        let continuous =
          match
            Bicrit_continuous.solve_general ~lo:(Array.make n fmin)
              ~hi:(Array.make n fmax) ~deadline mapping
          with
          | Some r -> r.Bicrit_continuous.energy
          | None -> Alcotest.fail "continuous feasible"
        in
        let ratio = Schedule.energy sched /. continuous in
        let bound = Bicrit_incremental.bound ~fmin ~delta ~k:None in
        Alcotest.(check bool)
          (Printf.sprintf "delta %.2f: ratio %.4f <= %.4f" delta ratio bound)
          true (ratio <= bound *. (1. +. 1e-6)))
    [ 0.05; 0.1; 0.2; 0.4 ]

let test_incremental_finer_grid_converges () =
  let mapping, dmin = small_instance ~seed:75 in
  let deadline = 1.7 *. dmin in
  let fmin = 0.2 and fmax = 1.0 in
  let energies =
    List.filter_map
      (fun delta ->
        Option.map Schedule.energy
          (Bicrit_incremental.approximate ~deadline ~fmin ~fmax ~delta mapping))
      [ 0.4; 0.2; 0.1; 0.05; 0.025 ]
  in
  let rec non_increasing = function
    | a :: (b :: _ as rest) -> b <= a *. (1. +. 1e-9) && non_increasing rest
    | _ -> true
  in
  Alcotest.(check int) "all feasible" 5 (List.length energies);
  Alcotest.(check bool) "finer grid no worse" true (non_increasing energies)

let suite =
  ( "bicrit-discrete",
    [
      Alcotest.test_case "exact matches brute force" `Slow test_exact_matches_brute_force;
      Alcotest.test_case "exact feasible schedule" `Quick test_exact_feasible_schedule;
      Alcotest.test_case "exact infeasible" `Quick test_exact_infeasible;
      Alcotest.test_case "exact at dmin" `Quick test_exact_at_exact_dmin;
      Alcotest.test_case "round-up feasible and bounded" `Slow test_round_up_feasible_and_bounded;
      Alcotest.test_case "ratio bound value" `Quick test_ratio_bound_value;
      Alcotest.test_case "incremental grid" `Quick test_incremental_grid;
      Alcotest.test_case "incremental bound formula" `Quick test_incremental_bound_formula;
      Alcotest.test_case "incremental within bound" `Slow test_incremental_approx_within_bound;
      Alcotest.test_case "incremental converges" `Slow test_incremental_finer_grid_converges;
    ] )
