let quantile xs q =
  assert (Array.length xs > 0);
  assert (0. <= q && q <= 1.);
  let sorted = Array.copy xs in
  Array.sort Float.compare sorted;
  let n = Array.length sorted in
  let pos = q *. float_of_int (n - 1) in
  let lo = int_of_float (Float.floor pos) in
  let hi = Stdlib.min (lo + 1) (n - 1) in
  let frac = pos -. float_of_int lo in
  ((1. -. frac) *. sorted.(lo)) +. (frac *. sorted.(hi))

let median xs = quantile xs 0.5

let geometric_mean xs =
  assert (Array.length xs > 0);
  let acc =
    Array.fold_left
      (fun a x ->
        assert (x > 0.);
        a +. log x)
      0. xs
  in
  exp (acc /. float_of_int (Array.length xs))
