let grid ~fmin ~fmax ~delta =
  match Speed.levels (Speed.incremental ~fmin ~fmax ~delta) with
  | Some levels -> levels
  | None -> assert false

let bound ~fmin ~delta ~k =
  let base = Es_util.Futil.square (1. +. (delta /. fmin)) in
  match k with
  | None -> base
  | Some kk -> base *. Es_util.Futil.square (1. +. (1. /. float_of_int kk))

let approximate ~deadline ~fmin ~fmax ~delta mapping =
  Bicrit_discrete.round_up ~deadline ~levels:(grid ~fmin ~fmax ~delta) mapping
