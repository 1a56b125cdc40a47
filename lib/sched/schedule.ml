type part = { speed : float; time : float }
type execution = part list

type t = { mapping : Mapping.t; executions : execution list array }

let exec_time e = Es_util.Futil.sum_by (fun p -> p.time) e
let exec_work e = Es_util.Futil.sum_by (fun p -> p.speed *. p.time) e

let exec_energy e =
  Es_util.Futil.sum_by (fun p -> p.speed *. p.speed *. p.speed *. p.time) e

let make mapping ~executions =
  let dag = Mapping.dag mapping in
  if Array.length executions <> Dag.n dag then
    invalid_arg "Schedule.make: executions length mismatch";
  Array.iteri
    (fun i execs ->
      let k = List.length execs in
      if k < 1 || k > 2 then
        invalid_arg (Printf.sprintf "Schedule.make: task %d has %d executions" i k);
      List.iter
        (fun e ->
          List.iter
            (fun p ->
              if p.speed <= 0. || p.time <= 0. then
                invalid_arg "Schedule.make: non-positive part")
            e;
          let w = exec_work e and expect = Dag.weight dag i in
          if not (Es_util.Futil.approx_equal ~rel:1e-6 ~abs:1e-9 w expect) then
            invalid_arg
              (Printf.sprintf "Schedule.make: task %d execution does %g work, weight is %g"
                 i w expect))
        execs)
    executions;
  { mapping; executions = Array.copy executions }

let uniform mapping ~speed =
  let dag = Mapping.dag mapping in
  let executions =
    Array.init (Dag.n dag) (fun i ->
        [ [ { speed; time = Dag.weight dag i /. speed } ] ])
  in
  make mapping ~executions

let of_speeds ?reexecuted mapping ~speeds =
  let dag = Mapping.dag mapping in
  if Array.length speeds <> Dag.n dag then
    invalid_arg "Schedule.of_speeds: speeds length mismatch";
  let twice =
    match reexecuted with
    | None -> fun _ -> false
    | Some r ->
      if Array.length r <> Dag.n dag then
        invalid_arg "Schedule.of_speeds: reexecuted length mismatch";
      Array.get r
  in
  let executions =
    Array.init (Dag.n dag) (fun i ->
        let e = [ { speed = speeds.(i); time = Dag.weight dag i /. speeds.(i) } ] in
        if twice i then [ e; e ] else [ e ])
  in
  make mapping ~executions

let mapping t = t.mapping
let dag t = Mapping.dag t.mapping
let executions t i = t.executions.(i)
let reexecuted t i = List.length t.executions.(i) = 2
let duration t i = Es_util.Futil.sum_by exec_time t.executions.(i)
let durations t = Array.init (Dag.n (dag t)) (duration t)

let task_energy t i = Es_util.Futil.sum_by exec_energy t.executions.(i)

let energy t =
  Es_util.Futil.sum (Array.init (Dag.n (dag t)) (task_energy t))

let makespan t =
  Dag.critical_path_length (Mapping.constraint_dag t.mapping) ~durations:(durations t)

let start_times t =
  Dag.earliest_start (Mapping.constraint_dag t.mapping) ~durations:(durations t)

let with_execs t i execs =
  let executions = Array.copy t.executions in
  executions.(i) <- execs;
  make t.mapping ~executions

let pp ppf t =
  let d = dag t in
  for i = 0 to Dag.n d - 1 do
    let describe e =
      match e with
      | [ p ] -> Printf.sprintf "f=%g" p.speed
      | parts ->
        String.concat "+"
          (List.map (fun p -> Printf.sprintf "%g@%g" p.speed p.time) parts)
    in
    Format.fprintf ppf "%s: %s@." (Dag.label d i)
      (String.concat " | " (List.map describe t.executions.(i)))
  done
