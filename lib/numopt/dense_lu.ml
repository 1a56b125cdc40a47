exception Singular

(* Doolittle with partial pivoting: [lu] holds the packed factors of
   the row-permuted [a], [perm] the permutation. *)
let factor a =
  let n = Array.length a in
  let lu = Array.map Array.copy a in
  let perm = Array.init n (fun i -> i) in
  for k = 0 to n - 1 do
    let pivot = ref k in
    for i = k + 1 to n - 1 do
      if Float.abs lu.(i).(k) > Float.abs lu.(!pivot).(k) then pivot := i
    done;
    if Float.abs lu.(!pivot).(k) < 1e-300 then raise Singular;
    if !pivot <> k then begin
      let tmp = lu.(k) in
      lu.(k) <- lu.(!pivot);
      lu.(!pivot) <- tmp;
      let tp = perm.(k) in
      perm.(k) <- perm.(!pivot);
      perm.(!pivot) <- tp
    end;
    let pk = lu.(k).(k) in
    for i = k + 1 to n - 1 do
      let factor = lu.(i).(k) /. pk in
      lu.(i).(k) <- factor;
      if factor <> 0. then
        for j = k + 1 to n - 1 do
          lu.(i).(j) <- lu.(i).(j) -. (factor *. lu.(k).(j))
        done
    done
  done;
  (lu, perm)

let solve a b =
  let n = Array.length a in
  assert (n = Array.length b);
  let lu, perm = factor a in
  let y = Array.make n 0. in
  for i = 0 to n - 1 do
    let acc = ref b.(perm.(i)) in
    for k = 0 to i - 1 do
      acc := !acc -. (lu.(i).(k) *. y.(k))
    done;
    y.(i) <- !acc
  done;
  let x = Array.make n 0. in
  for i = n - 1 downto 0 do
    let acc = ref y.(i) in
    for k = i + 1 to n - 1 do
      acc := !acc -. (lu.(i).(k) *. x.(k))
    done;
    x.(i) <- !acc /. lu.(i).(i)
  done;
  x
