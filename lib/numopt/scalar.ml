let bisect ?(tol = 1e-12) ~f ~lo ~hi =
  let flo = f lo and fhi = f hi in
  if flo = 0. then lo
  else if fhi = 0. then hi
  else begin
    if flo *. fhi > 0. then invalid_arg "Scalar.bisect: same sign at both endpoints";
    let width0 = hi -. lo in
    let rec loop lo hi flo iters =
      let mid = 0.5 *. (lo +. hi) in
      if iters = 0 || hi -. lo <= tol *. width0 then mid
      else begin
        let fmid = f mid in
        if fmid = 0. then mid
        else if flo *. fmid < 0. then loop lo mid flo (iters - 1)
        else loop mid hi fmid (iters - 1)
      end
    in
    loop lo hi flo 200
  end

let root_monotone ?(tol = 1e-12) ~f ~lo ~hi =
  let flo = f lo and fhi = f hi in
  if flo = 0. then lo
  else if fhi = 0. then hi
  else if flo *. fhi > 0. then
    (* No sign change: the root is outside; clamp to the closer end. *)
    if Float.abs flo < Float.abs fhi then lo else hi
  else bisect ~tol ~f ~lo ~hi

let c_golden_probes = Es_obs.Obs.counter "golden_probes"

let golden_min ?(tol = 1e-10) ~f ~lo ~hi =
  let f x =
    Es_obs.Obs.incr c_golden_probes;
    f x
  in
  let phi = (sqrt 5. -. 1.) /. 2. in
  let rec loop a b x1 x2 f1 f2 iters =
    if iters = 0 || b -. a <= tol *. (Float.abs a +. Float.abs b +. 1e-30) then
      0.5 *. (a +. b)
    else if f1 < f2 then begin
      let b = x2 and x2 = x1 and f2 = f1 in
      let x1 = b -. (phi *. (b -. a)) in
      loop a b x1 x2 (f x1) f2 (iters - 1)
    end
    else begin
      let a = x1 and x1 = x2 and f1 = f2 in
      let x2 = a +. (phi *. (b -. a)) in
      loop a b x1 x2 f1 (f x2) (iters - 1)
    end
  in
  let x1 = hi -. (phi *. (hi -. lo)) and x2 = lo +. (phi *. (hi -. lo)) in
  loop lo hi x1 x2 (f x1) (f x2) 200
