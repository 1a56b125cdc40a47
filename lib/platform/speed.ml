type t =
  | Continuous of { fmin : float; fmax : float }
  | Discrete of float array
  | Vdd_hopping of float array
  | Incremental of { fmin : float; fmax : float; delta : float }

let check_range ~fmin ~fmax =
  if not (0. < fmin && fmin <= fmax) then
    invalid_arg "Speed: need 0 < fmin <= fmax"

let continuous ~fmin ~fmax =
  check_range ~fmin ~fmax;
  Continuous { fmin; fmax }

let normalise_levels speeds =
  if Array.length speeds = 0 then invalid_arg "Speed: empty speed set";
  Array.iter (fun f -> if f <= 0. then invalid_arg "Speed: non-positive speed") speeds;
  let sorted = Array.copy speeds in
  Array.sort Float.compare sorted;
  let uniq =
    Array.fold_left
      (fun acc f ->
        match acc with prev :: _ when f <= prev -> acc | _ -> f :: acc)
      [] sorted
  in
  Array.of_list (List.rev uniq)

let discrete speeds = Discrete (normalise_levels speeds)
let vdd_hopping speeds = Vdd_hopping (normalise_levels speeds)

let incremental ~fmin ~fmax ~delta =
  check_range ~fmin ~fmax;
  if delta <= 0. then invalid_arg "Speed: need delta > 0";
  Incremental { fmin; fmax; delta }

let incremental_grid ~fmin ~fmax ~delta =
  let n = int_of_float (Float.floor (((fmax -. fmin) /. delta) +. 1e-9)) in
  Array.init (n + 1) (fun i -> fmin +. (float_of_int i *. delta))

let fmin = function
  | Continuous { fmin; _ } | Incremental { fmin; _ } -> fmin
  | Discrete levels | Vdd_hopping levels -> levels.(0)

let fmax = function
  | Continuous { fmax; _ } | Incremental { fmax; _ } -> fmax
  | Discrete levels | Vdd_hopping levels -> levels.(Array.length levels - 1)

let levels = function
  | Continuous _ -> None
  | Discrete l | Vdd_hopping l -> Some (Array.copy l)
  | Incremental { fmin; fmax; delta } -> Some (incremental_grid ~fmin ~fmax ~delta)

let admissible ?(tol = 1e-9) t f =
  match t with
  | Continuous _ | Vdd_hopping _ -> f >= fmin t -. tol && f <= fmax t +. tol
  | Discrete l -> Array.exists (fun g -> Float.abs (g -. f) <= tol) l
  | Incremental { fmin; fmax; delta } ->
    if f < fmin -. tol || f > fmax +. tol then false
    else begin
      let k = Float.round ((f -. fmin) /. delta) in
      Float.abs (f -. (fmin +. (k *. delta))) <= tol
    end

let pp ppf = function
  | Continuous { fmin; fmax } ->
    Format.fprintf ppf "CONTINUOUS [%g, %g]" fmin fmax
  | Discrete l ->
    Format.fprintf ppf "DISCRETE {%s}"
      (String.concat ", " (List.map (Printf.sprintf "%g") (Array.to_list l)))
  | Vdd_hopping l ->
    Format.fprintf ppf "VDD-HOPPING {%s}"
      (String.concat ", " (List.map (Printf.sprintf "%g") (Array.to_list l)))
  | Incremental { fmin; fmax; delta } ->
    Format.fprintf ppf "INCREMENTAL [%g, %g] step %g" fmin fmax delta
