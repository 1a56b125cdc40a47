type kind = Single | Reexecute | Replicate

type solution = {
  kinds : kind array;
  speeds : float array;
  energy : float;
  time : float;
}

let kind_name = function
  | Single -> "single"
  | Reexecute -> "re-execute"
  | Replicate -> "replicate"

(* Per-task coefficients: time = tc/f, energy = ec·f², floor on f. *)
let coeffs ~rel w = function
  | Single -> Some (w, w, Float.max rel.Rel.fmin rel.Rel.frel)
  | Reexecute -> (
    match Rel.min_reexec_speed rel ~w with
    | None -> None
    | Some flo -> Some (2. *. w, 2. *. w, Float.max rel.Rel.fmin flo))
  | Replicate -> (
    match Rel.min_reexec_speed rel ~w with
    | None -> None
    | Some flo -> Some (w, 2. *. w, Float.max rel.Rel.fmin flo))

let evaluate ~rel ~deadline ~weights ~kinds =
  let n = Array.length weights in
  assert (Array.length kinds = n);
  let exception Cannot in
  match Array.init n (fun i ->
      match coeffs ~rel weights.(i) kinds.(i) with
      | Some c -> c
      | None -> raise Cannot)
  with
  | exception Cannot -> None
  | profile ->
    let fmax = rel.Rel.fmax in
    (* KKT: f_i = kappa_i · fc clamped into [floor_i, fmax], with
       kappa_i = (T_i/E_i)^{1/3}. *)
    let kappa = Array.map (fun (tc, ec, _) -> Es_util.Futil.cbrt (tc /. ec)) profile in
    let speed_at fc i =
      let _, _, floor = profile.(i) in
      Es_util.Futil.clamp ~lo:floor ~hi:fmax (kappa.(i) *. fc)
    in
    let time_at fc =
      let acc = ref 0. in
      for i = 0 to n - 1 do
        let tc, _, _ = profile.(i) in
        acc := !acc +. (tc /. speed_at fc i)
      done;
      !acc
    in
    let floors_ok = Array.for_all (fun (_, _, fl) -> fl <= fmax *. (1. +. 1e-12)) profile in
    if not floors_ok then None
    else begin
      let fc_hi = fmax /. Array.fold_left (fun a k -> Float.min a k) 1. kappa in
      if time_at fc_hi > deadline *. (1. +. 1e-9) then None
      else begin
        let fc =
          if time_at 0. <= deadline then 0.
          else
            Es_numopt.Scalar.root_monotone ~tol:1e-14
              ~f:(fun fc -> time_at fc -. deadline)
              ~lo:0. ~hi:fc_hi
        in
        let speeds = Array.init n (speed_at fc) in
        let energy = ref 0. and time = ref 0. in
        for i = 0 to n - 1 do
          let tc, ec, _ = profile.(i) in
          energy := !energy +. (ec *. speeds.(i) *. speeds.(i));
          time := !time +. (tc /. speeds.(i))
        done;
        Some { kinds = Array.copy kinds; speeds; energy = !energy; time = !time }
      end
    end

let all_kinds = [| Single; Reexecute; Replicate |]

let solve_over_kinds menu ~rel ~deadline ~weights =
  Subset_search.exhaustive ~menu ~vary:(Array.make (Array.length weights) true)
    ~bound:(fun _ _ -> neg_infinity)
    ~evaluate:(fun kinds -> evaluate ~rel ~deadline ~weights ~kinds)
    ~energy:(fun s -> s.energy)

let max_n = 12

let solve_exact ~rel ~deadline ~weights =
  if Array.length weights > max_n then
    invalid_arg
      (Printf.sprintf "Replication.solve_exact: n = %d > %d" (Array.length weights) max_n);
  solve_over_kinds all_kinds ~rel ~deadline ~weights

let reexec_only ~rel ~deadline ~weights =
  if Array.length weights <= 20 then
    solve_over_kinds [| Single; Reexecute |] ~rel ~deadline ~weights
  else None

let solve_greedy ~rel ~deadline ~weights =
  Subset_search.descent ~menu:all_kinds ~vary:(Array.make (Array.length weights) true)
    ~evaluate:(fun kinds -> evaluate ~rel ~deadline ~weights ~kinds)
    ~energy:(fun s -> s.energy)
