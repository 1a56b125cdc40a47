type params = {
  lambda0 : float;
  sensitivity : float;
  fmin : float;
  fmax : float;
  frel : float;
}

(* Each test is written so that a NaN fails it. *)
let make ?(lambda0 = 1e-5) ?(sensitivity = 3.) ?frel ~fmin ~fmax () =
  if not (0. < fmin && fmin <= fmax) then invalid_arg "Rel.make: need 0 < fmin <= fmax";
  if not (lambda0 >= 0.) then invalid_arg "Rel.make: need lambda0 >= 0";
  if not (sensitivity >= 0.) then invalid_arg "Rel.make: need sensitivity >= 0";
  let frel = Option.value frel ~default:fmax in
  if not (fmin <= frel && frel <= fmax) then invalid_arg "Rel.make: frel outside [fmin, fmax]";
  { lambda0; sensitivity; fmin; fmax; frel }

let default = make ~fmin:(1. /. 3.) ~fmax:1. ()

let rate p ~f =
  let span = p.fmax -. p.fmin in
  let exponent = if span <= 0. then 0. else p.sensitivity *. (p.fmax -. f) /. span in
  p.lambda0 *. exp exponent

let failure_prob p ~f ~w = rate p ~f *. (w /. f)
let reliability p ~f ~w = Es_util.Futil.clamp ~lo:0. ~hi:1. (1. -. failure_prob p ~f ~w)
let target_failure p ~w = failure_prob p ~f:p.frel ~w
let reexec_failure p ~f1 ~f2 ~w = failure_prob p ~f:f1 ~w *. failure_prob p ~f:f2 ~w

let min_reexec_speed p ~w =
  let target = target_failure p ~w in
  let eps f = reexec_failure p ~f1:f ~f2:f ~w in
  if eps p.fmax > target then None
  else if eps p.fmin <= target then Some p.fmin
  else begin
    (* ε(f)² − target is strictly decreasing in f with a sign change
       on [fmin, fmax]. *)
    let f =
      Es_numopt.Scalar.bisect ~tol:1e-14
        ~f:(fun f -> eps f -. target)
        ~lo:p.fmin ~hi:p.fmax
    in
    Some f
  end

let vdd_failure p ~parts =
  Es_util.Futil.sum_by (fun (f, t) -> rate p ~f *. t) parts

type choice = { time : float; energy : float; floor : float }

let once p ~w = { time = w; energy = w; floor = p.frel }

let twice p ~w =
  Option.map (fun flo -> { time = 2. *. w; energy = 2. *. w; floor = flo }) (min_reexec_speed p ~w)

let replicated p ~w =
  Option.map (fun flo -> { time = w; energy = 2. *. w; floor = flo }) (min_reexec_speed p ~w)

let choices p ~weights ~subset =
  let exception Cannot in
  match
    Array.mapi
      (fun i w ->
        if not subset.(i) then once p ~w
        else match twice p ~w with Some c -> c | None -> raise Cannot)
      weights
  with
  | cs -> Some cs
  | exception Cannot -> None

type item = { saving : float; extra_time : float }

let knapsack_item p ~w =
  Option.map
    (fun flo ->
      {
        saving = w *. ((p.frel *. p.frel) -. (2. *. flo *. flo));
        extra_time = (2. *. w /. flo) -. (w /. p.frel);
      })
    (min_reexec_speed p ~w)
