type request = {
  mapping : Mapping.t;
  model : Speed.t;
  deadline : float;
  rel : Rel.params option;
}

type answer = {
  schedule : Schedule.t;
  energy : float;
  exact : bool;
  engine : string;
}

let answer ~exact ~engine schedule =
  Ok { schedule; energy = Schedule.energy schedule; exact; engine }

let or_infeasible ~exact ~engine = function
  | Some schedule -> answer ~exact ~engine schedule
  | None -> Error "infeasible: the deadline cannot be met under this model"

let check_rel_consistency model rel =
  let fmin = Speed.fmin model and fmax = Speed.fmax model in
  if
    Es_util.Futil.approx_equal ~rel:1e-9 ~abs:1e-12 rel.Rel.fmin fmin
    && Es_util.Futil.approx_equal ~rel:1e-9 ~abs:1e-12 rel.Rel.fmax fmax
  then Ok ()
  else
    Error
      (Printf.sprintf
         "inconsistent parameters: reliability bounds [%g, %g] differ from the \
          model's [%g, %g]"
         rel.Rel.fmin rel.Rel.fmax fmin fmax)

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

(* Instance-size bound for the exponential searches in the
   NP-complete cells: DISCRETE branch and bound up to this many tasks,
   TRI-CRIT VDD-HOPPING subset search up to four fewer. *)
let exact_threshold = 14

let solve { mapping; model; deadline; rel } =
  let n = Dag.n (Mapping.dag mapping) in
  match (model, rel) with
  | Speed.Continuous { fmin; fmax }, None ->
    or_infeasible ~exact:true ~engine:"continuous convex solve"
      (Bicrit_continuous.solve ~deadline ~fmin ~fmax mapping)
  | Speed.Continuous _, Some rel -> (
    let* () = check_rel_consistency model rel in
    match Heuristics.best_of ~rel ~deadline mapping with
    | Some (sol, _) ->
      answer ~exact:false ~engine:"tri-crit best-of heuristics" sol.Heuristics.schedule
    | None -> Error "infeasible: the deadline cannot be met under this model")
  | Speed.Vdd_hopping levels, None ->
    or_infeasible ~exact:true ~engine:"vdd-hopping LP"
      (Bicrit_vdd.solve ~deadline ~levels mapping)
  | Speed.Vdd_hopping levels, Some rel -> (
    let* () = check_rel_consistency model rel in
    if n <= exact_threshold - 4 then begin
      (* optimal over the subsets at the even budget split only, not
         under the true product constraint *)
      match Tricrit_vdd.solve_exact ~rel ~deadline ~levels mapping with
      | Some sol ->
        answer ~exact:false ~engine:"tri-crit vdd branch and bound (even budget split)"
          sol.Tricrit_vdd.schedule
      | None -> Error "infeasible: the deadline cannot be met under this model"
    end
    else begin
      match Tricrit_vdd.solve_heuristic ~rel ~deadline ~levels mapping with
      | Some sol ->
        answer ~exact:false ~engine:"tri-crit vdd continuous-bridge heuristic"
          sol.Tricrit_vdd.schedule
      | None -> Error "infeasible: the deadline cannot be met under this model"
    end)
  | Speed.Discrete levels, None ->
    if n <= exact_threshold then begin
      match Bicrit_discrete.solve_exact ~deadline ~levels mapping with
      | Some r -> answer ~exact:true ~engine:"discrete branch-and-bound" r.Bicrit_discrete.schedule
      | None -> Error "infeasible: the deadline cannot be met under this model"
    end
    else
      or_infeasible ~exact:false ~engine:"discrete round-up approximation"
        (Bicrit_discrete.round_up ~deadline ~levels mapping)
  | Speed.Incremental { fmin; fmax; delta }, None ->
    or_infeasible ~exact:false ~engine:"incremental round-up approximation"
      (Bicrit_incremental.approximate ~deadline ~fmin ~fmax ~delta mapping)
  | (Speed.Discrete _ | Speed.Incremental _), Some _ ->
    Error
      "unsupported: the paper studies TRI-CRIT under the CONTINUOUS and \
       VDD-HOPPING models only"
