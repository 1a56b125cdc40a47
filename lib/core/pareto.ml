type point = { deadline : float; energy : float; n_reexecuted : int }

(* Both sweeps solve each deadline independently, so they parallelise
   over the pool; results come back in deadline order either way, and
   infeasible deadlines are dropped after the join. *)
let bicrit_front ?pool ~fmin ~fmax ~deadlines mapping =
  let n = Dag.n (Mapping.dag mapping) in
  let lo = Array.make n fmin and hi = Array.make n fmax in
  List.filter_map Fun.id
    (Es_par.Par.parallel_map ?pool
       (fun deadline ->
         match Bicrit_continuous.solve_general ~lo ~hi ~deadline mapping with
         | None -> None
         | Some { energy; _ } -> Some { deadline; energy; n_reexecuted = 0 })
       deadlines)

(* Warm chaining runs inside fixed 25-deadline blocks: the partition
   is a function of the deadline list alone, never of the pool size,
   so the basis handed to each solve — and therefore every computed
   point — is identical under --jobs 1 and --jobs 4.  Blocks are the
   parallelism grain; within a block each LP re-starts from the
   optimal basis of the next looser deadline
   ([Bicrit_vdd.energy_sweep] visits them loosest first). *)
let vdd_block = 25

let bicrit_vdd_front ?pool ?(warm = true) ~levels ~deadlines mapping =
  let ds = Array.of_list deadlines in
  let n = Array.length ds in
  let n_blocks = (n + vdd_block - 1) / vdd_block in
  let blocks =
    List.init n_blocks (fun b ->
        Array.sub ds (b * vdd_block) (min vdd_block (n - (b * vdd_block))))
  in
  let results =
    Es_par.Par.parallel_map ?pool
      (fun block ->
        Bicrit_vdd.energy_sweep ~warm ~deadlines:block ~levels mapping)
      blocks
  in
  List.concat
    (List.map2
       (fun block energies ->
         List.filter_map Fun.id
           (List.mapi
              (fun i e ->
                match e with
                | None -> None
                | Some energy ->
                  Some { deadline = block.(i); energy; n_reexecuted = 0 })
              (Array.to_list energies)))
       blocks results)

let tricrit_front ?pool ~rel ~deadlines mapping =
  List.filter_map Fun.id
    (Es_par.Par.parallel_map ?pool
       (fun deadline ->
         match Heuristics.best_of ~rel ~deadline mapping with
         | None -> None
         | Some (sol, _) ->
           let n_reexecuted =
             Array.fold_left
               (fun a b -> if b then a + 1 else a)
               0 sol.Heuristics.reexecuted
           in
           Some { deadline; energy = sol.Heuristics.energy; n_reexecuted })
       deadlines)

let dominates a b =
  a.deadline <= b.deadline && a.energy <= b.energy
  && (a.deadline < b.deadline || a.energy < b.energy)

let is_front points =
  List.for_all
    (fun p -> not (List.exists (fun q -> q != p && dominates q p) points))
    points
