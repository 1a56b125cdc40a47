module Futil = Es_util.Futil

let hull ~levels =
  let sorted = Array.copy levels in
  Array.sort Float.compare sorted;
  (* points by increasing u = 1/f, i.e. decreasing speed *)
  let pts =
    Array.to_list sorted
    |> List.rev_map (fun f -> (1. /. f, f *. f))
  in
  let cross (ox, oy) (ax, ay) (bx, by) =
    ((ax -. ox) *. (by -. oy)) -. ((ay -. oy) *. (bx -. ox))
  in
  let push acc p =
    let rec trim = function
      | a :: b :: rest when cross b a p <= 0. -> trim (b :: rest)
      | acc -> p :: acc
    in
    trim acc
  in
  Array.of_list (List.rev (List.fold_left push [] pts))

let energy_per_work ~levels ~u =
  let h = hull ~levels in
  let k = Array.length h in
  let u_min, _ = h.(0) in
  let u_max, e_max = h.(k - 1) in
  if u < u_min *. (1. -. 1e-12) then None
  else if u >= u_max then Some e_max (* run at fmin, idle through the slack *)
  else begin
    let u = Float.max u u_min in
    (* find the hull segment containing u and interpolate *)
    let e = ref e_max in
    (try
       for s = 0 to k - 2 do
         let u0, e0 = h.(s) and u1, e1 = h.(s + 1) in
         if u <= u1 then begin
           let t = if u1 > u0 then (u -. u0) /. (u1 -. u0) else 0. in
           e := e0 +. (t *. (e1 -. e0));
           raise Exit
         end
       done
     with Exit -> ());
    Some !e
  end

let vdd_chain_optimum ~levels ~weights ~deadline =
  let total = Futil.sum weights in
  if total <= 0. then Some 0.
  else
    match energy_per_work ~levels ~u:(deadline /. total) with
    | None -> None
    | Some h -> Some (total *. h)

let assignment_limit = 200_000

let discrete_optimum ~levels ~deadline mapping =
  let cdag = Mapping.constraint_dag mapping in
  let n = Dag.n cdag in
  let w = Dag.weights cdag in
  let m = Array.length levels in
  let count =
    let rec pow acc k = if k = 0 then acc else pow (acc * m) (k - 1) in
    pow 1 n
  in
  if m = 0 then invalid_arg "Brute.discrete_optimum: empty level set";
  if count > assignment_limit || count <= 0 then
    invalid_arg
      (Printf.sprintf "Brute.discrete_optimum: %d^%d assignments exceed the limit %d" m n
         assignment_limit);
  let choice = Array.make n 0 in
  let durations = Array.make n 0. in
  let best = ref infinity in
  let rec enumerate i =
    if i = n then begin
      for k = 0 to n - 1 do
        durations.(k) <- w.(k) /. levels.(choice.(k))
      done;
      if Dag.critical_path_length cdag ~durations <= deadline *. (1. +. 1e-12) then begin
        let e = ref 0. in
        for k = 0 to n - 1 do
          let f = levels.(choice.(k)) in
          e := !e +. (w.(k) *. f *. f)
        done;
        if !e < !best then best := !e
      end
    end
    else
      for k = 0 to m - 1 do
        choice.(i) <- k;
        enumerate (i + 1)
      done
  in
  enumerate 0;
  if Float.is_finite !best then Some !best else None
