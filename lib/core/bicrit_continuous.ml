module Futil = Es_util.Futil

module Barrier = Es_numopt.Barrier

type result = { speeds : float array; energy : float }

let chain ~weights ~deadline ~fmin ~fmax =
  let total = Futil.sum weights in
  let f = Float.max fmin (total /. deadline) in
  if f > fmax *. (1. +. 1e-12) then None
  else begin
    let f = Float.min f fmax in
    let speeds = Array.map (fun _ -> f) weights in
    Some { speeds; energy = total *. f *. f }
  end

let cubic_norm ws =
  Futil.cbrt (Futil.sum (Array.map Futil.cube ws))

let fork_energy ~root ~children ~deadline =
  Futil.cube (cubic_norm children +. root) /. (deadline *. deadline)

let fork_speeds ~root ~children ~deadline ~fmax =
  let w3 = cubic_norm children in
  let f0 = (w3 +. root) /. deadline in
  if f0 <= fmax then begin
    let speeds = Array.append [| f0 |] (Array.map (fun w -> f0 *. w /. w3) children) in
    let energy =
      Futil.sum (Array.mapi (fun i f -> (if i = 0 then root else children.(i - 1)) *. f *. f) speeds)
    in
    Some { speeds; energy }
  end
  else begin
    (* Source saturated at fmax; the children share the remaining
       window uniformly in time. *)
    let window = deadline -. (root /. fmax) in
    if window <= 0. then None
    else begin
      let child_speeds = Array.map (fun w -> w /. window) children in
      if Array.exists (fun f -> f > fmax *. (1. +. 1e-12)) child_speeds then None
      else begin
        let speeds = Array.append [| fmax |] child_speeds in
        let energy =
          root *. fmax *. fmax
          +. Futil.sum (Array.map2 (fun w f -> w *. f *. f) children child_speeds)
        in
        Some { speeds; energy }
      end
    end
  end

let rec sp_equivalent_weight = function
  | Sp.Leaf w -> w
  | Sp.Series (a, b) -> sp_equivalent_weight a +. sp_equivalent_weight b
  | Sp.Parallel (a, b) ->
    Futil.cbrt (Futil.cube (sp_equivalent_weight a) +. Futil.cube (sp_equivalent_weight b))

let sp_speeds sp ~deadline =
  let speeds = ref [] in
  (* Windows: a leaf given window T runs at w/T; series nodes split the
     window proportionally to equivalent weights; parallel branches
     each get the whole window. *)
  let rec alloc node window =
    match node with
    | Sp.Leaf w -> speeds := (w /. window) :: !speeds
    | Sp.Series (a, b) ->
      let wa = sp_equivalent_weight a and wb = sp_equivalent_weight b in
      let ta = window *. wa /. (wa +. wb) in
      alloc a ta;
      alloc b (window -. ta)
    | Sp.Parallel (a, b) ->
      alloc a window;
      alloc b window
  in
  alloc sp deadline;
  let speeds = Array.of_list (List.rev !speeds) in
  let weights = Sp.weights sp in
  let energy = Futil.sum (Array.map2 (fun w f -> w *. f *. f) weights speeds) in
  { speeds; energy }

(* ---- general DAG: convex program via the interior-point method --- *)

let solve_general ?eff_weights ?lo ?hi ~deadline mapping =
  let cdag = Mapping.constraint_dag mapping in
  let n = Dag.n cdag in
  let w = match eff_weights with Some a -> Array.copy a | None -> Dag.weights cdag in
  let lo = match lo with Some a -> Array.copy a | None -> Array.make n 0. in
  let hi = match hi with Some a -> Array.copy a | None -> Array.make n infinity in
  assert (Array.length w = n && Array.length lo = n && Array.length hi = n);
  let bounds_ok = Array.for_all Fun.id (Array.init n (fun i -> lo.(i) <= hi.(i))) in
  if not bounds_ok then None
  else begin
    let d_min = Array.init n (fun i -> w.(i) /. hi.(i)) in
    let makespan_of durations = Dag.critical_path_length cdag ~durations in
    let m_fast = makespan_of d_min in
    if m_fast > deadline *. (1. +. 1e-9) then None
    else if m_fast >= deadline *. (1. -. 1e-9) then begin
      (* no slack: run everything flat out *)
      let speeds = Array.copy hi in
      let energy = Futil.sum (Array.map2 (fun wi f -> wi *. f *. f) w speeds) in
      Some { speeds; energy }
    end
    else begin
      (* strictly feasible start *)
      let target = m_fast +. (0.9 *. (deadline -. m_fast)) in
      let rho = target /. m_fast in
      let d0 =
        Array.init n (fun i ->
            let fast = d_min.(i) in
            if lo.(i) <= 0. then fast *. rho
            else begin
              let slow = w.(i) /. lo.(i) in
              Float.min (fast *. rho) (0.5 *. (fast +. slow))
            end)
      in
      let es0 = Dag.earliest_start cdag ~durations:d0 in
      let m0 = makespan_of d0 in
      (* the longest path in hops before each task (exact in floats)
         spreads the start times *)
      let hops = Dag.earliest_start cdag ~durations:(Array.make n 1.) in
      let alpha = (deadline -. m0) /. float_of_int (n + 2) in
      let s0 = Array.init n (fun i -> es0.(i) +. (alpha *. (hops.(i) +. 0.5))) in
      (* variables x = [d; s]; rows of A in CSR, columns ascending.
         Only the rows the others do not imply: a precedence row per
         edge of the transitive reduction (the rows along a longer
         path imply the rest), a deadline row per sink and [−s_i ≤ 0]
         per source (durations are nonnegative, so a precedence row
         carries both along an edge). *)
      let edges = Dag.edges (Dag.transitive_reduction cdag) in
      let sink i = Dag.succs cdag i = [] and source i = Dag.preds cdag i = [] in
      let count p = Array.fold_left (fun c x -> if p x then c + 1 else c) 0 in
      let tasks = Array.init n Fun.id in
      let n_sink = count sink tasks and n_source = count source tasks in
      let n_lo = count (fun l -> l > 0.) lo in
      let m = List.length edges + n_sink + n_source + n + n_lo in
      let nnz = (3 * List.length edges) + (2 * n_sink) + n_source + n + n_lo in
      let row_ptr = Array.make (m + 1) 0 and col_idx = Array.make nnz 0 in
      let value = Array.make nnz 0. and b = Array.make m 0. in
      let r = ref 0 and p = ref 0 in
      let entry j v =
        col_idx.(!p) <- j;
        value.(!p) <- v;
        incr p
      in
      let close rhs =
        b.(!r) <- rhs;
        incr r;
        row_ptr.(!r) <- !p
      in
      List.iter
        (fun (i, j) ->
          (* s_i + d_i - s_j <= 0 *)
          entry i 1.;
          if i < j then begin
            entry (n + i) 1.;
            entry (n + j) (-1.)
          end
          else begin
            entry (n + j) (-1.);
            entry (n + i) 1.
          end;
          close 0.)
        edges;
      for i = 0 to n - 1 do
        (* s_i + d_i <= D *)
        if sink i then begin
          entry i 1.;
          entry (n + i) 1.;
          close deadline
        end;
        (* -s_i <= 0 *)
        if source i then begin
          entry (n + i) (-1.);
          close 0.
        end;
        (* -d_i <= -w_i/hi_i  (speed at most hi) *)
        entry i (-1.);
        close (-.d_min.(i));
        (* d_i <= w_i/lo_i (speed at least lo), only when lo > 0 *)
        if lo.(i) > 0. then begin
          entry i 1.;
          close (w.(i) /. lo.(i))
        end
      done;
      let a = { Barrier.row_ptr; col_idx; value } in
      let x0 = Array.append d0 s0 in
      let w3 = Array.map Futil.cube w in
      let objective =
        {
          Barrier.f =
            (fun x ->
              let acc = ref 0. in
              for i = 0 to n - 1 do
                acc := !acc +. (w3.(i) /. (x.(i) *. x.(i)))
              done;
              !acc);
          grad =
            (fun x ->
              let g = Array.make (2 * n) 0. in
              for i = 0 to n - 1 do
                g.(i) <- -2. *. w3.(i) /. (x.(i) *. x.(i) *. x.(i))
              done;
              g);
          hess =
            (fun x ->
              let h = Array.make (2 * n) 0. in
              for i = 0 to n - 1 do
                let x2 = x.(i) *. x.(i) in
                h.(i) <- 6. *. w3.(i) /. (x2 *. x2)
              done;
              h);
        }
      in
      let x =
        match Barrier.minimize objective ~a ~b ~x0 with
        | x -> x
        | exception Barrier.Not_strictly_feasible -> x0
      in
      let speeds =
        Array.init n (fun i ->
            let f = w.(i) /. x.(i) in
            let f = Float.max f lo.(i) in
            Float.min f hi.(i))
      in
      (* numeric safety: rescale if the rounded speeds overrun D *)
      let durations = Array.init n (fun i -> w.(i) /. speeds.(i)) in
      let ms = makespan_of durations in
      let speeds =
        if ms > deadline then
          Array.map2 (fun f h -> Float.min (f *. (ms /. deadline) *. (1. +. 1e-12)) h) speeds hi
        else speeds
      in
      let energy = Futil.sum (Array.map2 (fun wi f -> wi *. f *. f) w speeds) in
      Some { speeds; energy }
    end
  end

let solve ~deadline ~fmin ~fmax mapping =
  let n = Dag.n (Mapping.dag mapping) in
  let lo = Array.make n fmin and hi = Array.make n fmax in
  match solve_general ~lo ~hi ~deadline mapping with
  | None -> None
  | Some { speeds; _ } -> Some (Schedule.of_speeds mapping ~speeds)

let energy_lower_bound ~deadline ~fmin ~fmax mapping =
  let n = Dag.n (Mapping.dag mapping) in
  let lo = Array.make n fmin and hi = Array.make n fmax in
  match solve_general ~lo ~hi ~deadline mapping with
  | Some { energy; _ } -> energy
  | None ->
    Futil.sum (Array.map (fun w -> w *. fmin *. fmin) (Dag.weights (Mapping.dag mapping)))
