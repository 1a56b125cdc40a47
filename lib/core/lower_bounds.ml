let relaxation ~rel ~deadline mapping =
  Bicrit_continuous.energy_lower_bound ~deadline ~fmin:rel.Rel.fmin ~fmax:rel.Rel.fmax
    mapping

let per_task ~rel mapping =
  let dag = Mapping.dag mapping in
  let at_floor (c : Rel.choice) = c.energy *. c.floor *. c.floor in
  let task_bound i =
    let w = Dag.weight dag i in
    let single = at_floor (Rel.once rel ~w) in
    match Rel.twice rel ~w with
    | None -> single
    | Some t -> Float.min single (at_floor t)
  in
  Es_util.Futil.sum (Array.init (Dag.n dag) task_bound)

let tricrit ~rel ~deadline mapping =
  Float.max (relaxation ~rel ~deadline mapping) (per_task ~rel mapping)
