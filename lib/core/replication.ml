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

let choice ~rel w = function
  | Single -> Some (Rel.once rel ~w)
  | Reexecute -> Rel.twice rel ~w
  | Replicate -> Rel.replicated rel ~w

let evaluate ~rel ~deadline ~weights ~kinds =
  let n = Array.length weights in
  assert (Array.length kinds = n);
  let exception Cannot in
  match
    Array.init n (fun i ->
        match choice ~rel weights.(i) kinds.(i) with Some c -> c | None -> raise Cannot)
  with
  | exception Cannot -> None
  | choices ->
    (match Tricrit_chain.waterfill choices ~fmax:rel.Rel.fmax ~deadline with
    | None -> None
    | Some speeds ->
      let energy = ref 0. and time = ref 0. in
      Array.iteri
        (fun i (c : Rel.choice) ->
          energy := !energy +. (c.energy *. speeds.(i) *. speeds.(i));
          time := !time +. (c.time /. speeds.(i)))
        choices;
      Some { kinds = Array.copy kinds; speeds; energy = !energy; time = !time })

let all_kinds = [| Single; Reexecute; Replicate |]

let solve_over_kinds menu ~rel ~deadline ~weights =
  Subset_search.exhaustive ~menu ~vary:(Array.make (Array.length weights) true)
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
