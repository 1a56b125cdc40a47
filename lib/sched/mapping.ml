(* Immutable: mappings are shared freely across worker domains by the
   parallel sweeps, so the constraint DAG is computed eagerly in [make]
   instead of being memoised through a mutable field (E007). *)
type t = {
  p : int;
  dag : Dag.t;
  order : Dag.task list array;
  proc_of : int array;
  rank_of : int array;
  cdag : Dag.t;
}

let make ~p dag ~order =
  if Array.length order <> p then invalid_arg "Mapping.make: order length <> p";
  let n = Dag.n dag in
  let proc_of = Array.make n (-1) and rank_of = Array.make n (-1) in
  Array.iteri
    (fun k tasks ->
      List.iteri
        (fun r i ->
          if i < 0 || i >= n then invalid_arg "Mapping.make: task out of range";
          if proc_of.(i) >= 0 then invalid_arg "Mapping.make: task mapped twice";
          proc_of.(i) <- k;
          rank_of.(i) <- r)
        tasks)
    order;
  Array.iteri
    (fun i k -> if k < 0 then invalid_arg (Printf.sprintf "Mapping.make: task %d unmapped" i))
    proc_of;
  (* Raises "Dag: cycle detected" if the order conflicts with
     precedence. *)
  let cdag = Dag.add_chains dag order in
  { p; dag; order = Array.map (fun l -> l) order; proc_of; rank_of; cdag }

let single_processor dag =
  let topo = Array.to_list (Dag.topological_order dag) in
  make ~p:1 dag ~order:[| topo |]

let one_task_per_proc dag =
  let n = Dag.n dag in
  make ~p:n dag ~order:(Array.init n (fun i -> [ i ]))

let p t = t.p
let dag t = t.dag
let order t k = t.order.(k)
let proc_of t i = t.proc_of.(i)
let rank_of t i = t.rank_of.(i)

let constraint_dag t = t.cdag

let load t k = Es_util.Futil.sum_by (Dag.weight t.dag) t.order.(k)

let pp ppf t =
  Array.iteri
    (fun k tasks ->
      Format.fprintf ppf "P%d: %s@." k
        (String.concat " -> " (List.map (Dag.label t.dag) tasks)))
    t.order

let of_assignment ~p dag ~proc =
  if Array.length proc <> Dag.n dag then
    invalid_arg "Mapping.of_assignment: proc length mismatch";
  Array.iter
    (fun k -> if k < 0 || k >= p then invalid_arg "Mapping.of_assignment: processor out of range")
    proc;
  let topo = Dag.topological_order dag in
  let order = Array.make p [] in
  for idx = Dag.n dag - 1 downto 0 do
    let i = topo.(idx) in
    order.(proc.(i)) <- i :: order.(proc.(i))
  done;
  make ~p dag ~order
