exception Not_positive_definite

type t = {
  n : int;
  h_ptr : int array; (* lower pattern of H by rows, diagonal last *)
  h_col : int array;
  l_ptr : int array; (* L by columns: diagonal first, then rows ascending *)
  l_row : int array;
  l_val : float array;
  r_ptr : int array; (* strictly lower L by rows, columns ascending ... *)
  r_col : int array;
  r_pos : int array; (* ... and where each entry sits in l_val *)
  work : float array; (* zero between calls *)
}

let analyze ~n ~row_ptr ~col_idx =
  (* elimination tree, with path-compressed ancestors (Liu) *)
  let parent = Array.make n (-1) and ancestor = Array.make n (-1) in
  for i = 0 to n - 1 do
    for p = row_ptr.(i) to row_ptr.(i + 1) - 1 do
      let k = ref col_idx.(p) in
      while !k <> -1 && !k < i do
        let next = ancestor.(!k) in
        ancestor.(!k) <- i;
        if next = -1 then parent.(!k) <- i;
        k := next
      done
    done
  done;
  (* Row i of L is the etree reach of H's row i: every path from one
     of its columns up to i.  Count each row and column of L, then hand
     out each column's slots to the rows in ascending order, then each
     row's slots to the columns in ascending order: flat arrays only,
     and no sort. *)
  let mark = Array.make n (-1) in
  let reach i visit =
    mark.(i) <- i;
    for p = row_ptr.(i) to row_ptr.(i + 1) - 1 do
      let k = ref col_idx.(p) in
      while mark.(!k) <> i do
        visit !k;
        mark.(!k) <- i;
        k := parent.(!k)
      done
    done
  in
  let l_ptr = Array.make (n + 1) 0 and r_ptr = Array.make (n + 1) 0 in
  let row = ref 0 in
  let count j =
    r_ptr.(!row + 1) <- r_ptr.(!row + 1) + 1;
    l_ptr.(j + 1) <- l_ptr.(j + 1) + 1
  in
  for i = 0 to n - 1 do
    row := i;
    reach i count
  done;
  for j = 0 to n - 1 do
    r_ptr.(j + 1) <- r_ptr.(j + 1) + r_ptr.(j);
    l_ptr.(j + 1) <- l_ptr.(j + 1) + l_ptr.(j) + 1
  done;
  let l_row = Array.make l_ptr.(n) 0 in
  for j = 0 to n - 1 do
    l_row.(l_ptr.(j)) <- j
  done;
  (* rows in ascending order hand out each column's slots in ascending
     row order *)
  let next = Array.init n (fun j -> l_ptr.(j) + 1) in
  let place j =
    l_row.(next.(j)) <- !row;
    next.(j) <- next.(j) + 1
  in
  Array.fill mark 0 n (-1);
  for i = 0 to n - 1 do
    row := i;
    reach i place
  done;
  (* columns in ascending order hand out each row's slots in ascending
     column order *)
  let r_col = Array.make r_ptr.(n) 0 and r_pos = Array.make r_ptr.(n) 0 in
  let fill = Array.sub r_ptr 0 n in
  for j = 0 to n - 1 do
    for p = l_ptr.(j) + 1 to l_ptr.(j + 1) - 1 do
      let i = l_row.(p) in
      r_col.(fill.(i)) <- j;
      r_pos.(fill.(i)) <- p;
      fill.(i) <- fill.(i) + 1
    done
  done;
  {
    n;
    h_ptr = row_ptr;
    h_col = col_idx;
    l_ptr;
    l_row;
    l_val = Array.make l_ptr.(n) 0.;
    r_ptr;
    r_col;
    r_pos;
    work = Array.make n 0.;
  }

let factor t h =
  let x = t.work and l_val = t.l_val and l_ptr = t.l_ptr and l_row = t.l_row in
  for i = 0 to t.n - 1 do
    for p = t.h_ptr.(i) to t.h_ptr.(i + 1) - 1 do
      x.(t.h_col.(p)) <- h.(p)
    done;
    let d = ref x.(i) in
    x.(i) <- 0.;
    (* ascending columns: x.(j) has received every l_ik·l_jk, k < j, by
       the time it is read *)
    for q = t.r_ptr.(i) to t.r_ptr.(i + 1) - 1 do
      let j = t.r_col.(q) in
      let lij = x.(j) /. l_val.(l_ptr.(j)) in
      x.(j) <- 0.;
      for p = l_ptr.(j) + 1 to t.r_pos.(q) - 1 do
        let r = l_row.(p) in
        x.(r) <- x.(r) -. (l_val.(p) *. lij)
      done;
      d := !d -. (lij *. lij);
      l_val.(t.r_pos.(q)) <- lij
    done;
    if !d <= 0. then raise Not_positive_definite;
    l_val.(l_ptr.(i)) <- sqrt !d
  done

let solve t b =
  let y = Array.copy b and l_val = t.l_val and l_ptr = t.l_ptr and l_row = t.l_row in
  for k = 0 to t.n - 1 do
    let yk = y.(k) /. l_val.(l_ptr.(k)) in
    y.(k) <- yk;
    for p = l_ptr.(k) + 1 to l_ptr.(k + 1) - 1 do
      let r = l_row.(p) in
      y.(r) <- y.(r) -. (l_val.(p) *. yk)
    done
  done;
  for i = t.n - 1 downto 0 do
    let acc = ref y.(i) in
    for p = l_ptr.(i) + 1 to l_ptr.(i + 1) - 1 do
      acc := !acc -. (l_val.(p) *. y.(l_row.(p)))
    done;
    y.(i) <- !acc /. l_val.(l_ptr.(i))
  done;
  y
