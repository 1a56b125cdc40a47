let approx_equal ?(rel = 1e-9) ?(abs = 1e-12) a b =
  let diff = Float.abs (a -. b) in
  diff <= abs || diff <= rel *. Float.max (Float.abs a) (Float.abs b)

let clamp ~lo ~hi x =
  assert (lo <= hi);
  if x < lo then lo else if x > hi then hi else x

let cube x = x *. x *. x
let square x = x *. x
let cbrt x = Float.cbrt x

let sum xs =
  let acc = ref 0. and comp = ref 0. in
  Array.iter
    (fun x ->
      let y = x -. !comp in
      let t = !acc +. y in
      comp := t -. !acc -. y;
      acc := t)
    xs;
  !acc

let sum_by f xs = sum (Array.of_list (List.map f xs))
