module Rng = Es_util.Rng

type event = {
  task : Dag.task;
  attempt : int;
  start : float;
  finish : float;
  failed : bool;
}

type t = { events : event list; success : bool; makespan : float; energy : float }

let attempt_failure ~rel e =
  let parts = List.map (fun (p : Schedule.part) -> (p.speed, p.time)) e in
  Es_util.Futil.clamp ~lo:0. ~hi:1. (Rel.vdd_failure rel ~parts)

let run rng ~rel sched =
  let dag = Schedule.dag sched in
  let cdag = Mapping.constraint_dag (Schedule.mapping sched) in
  let n = Dag.n dag in
  (* First pass: decide the fate of every attempt and the realised
     duration of every task. *)
  let outcomes = Array.make n [] in
  let durations = Array.make n 0. in
  let energy = ref 0. in
  let success = ref true in
  for i = 0 to n - 1 do
    let rec attempts ok acc = function
      | [] -> (ok, List.rev acc)
      | e :: rest ->
        if ok then (ok, List.rev acc)
        else begin
          durations.(i) <- durations.(i) +. Schedule.exec_time e;
          energy := !energy +. Schedule.exec_energy e;
          let failed = Rng.bernoulli rng (attempt_failure ~rel e) in
          attempts (not failed) ((e, failed) :: acc) rest
        end
    in
    let ok, ran = attempts false [] (Schedule.executions sched i) in
    outcomes.(i) <- ran;
    if not ok then success := false
  done;
  (* Second pass: realised start times from the realised durations. *)
  let starts = Dag.earliest_start cdag ~durations in
  let events = ref [] in
  for i = n - 1 downto 0 do
    let t = ref starts.(i) in
    List.iteri
      (fun k (e, failed) ->
        let finish = !t +. Schedule.exec_time e in
        events := { task = i; attempt = k + 1; start = !t; finish; failed } :: !events;
        t := finish)
      outcomes.(i)
  done;
  let events = List.sort (fun a b -> Float.compare a.start b.start) !events in
  let makespan = Dag.critical_path_length cdag ~durations in
  { events; success = !success; makespan; energy = !energy }

let width = 72

let render sched t =
  let mapping = Schedule.mapping sched in
  let horizon = Float.max t.makespan 1e-9 in
  let col x = int_of_float (float_of_int width *. x /. horizon) in
  let buf = Buffer.create 512 in
  for k = 0 to Mapping.p mapping - 1 do
    let row = Bytes.make (width + 1) '.' in
    List.iter
      (fun ev ->
        if Mapping.proc_of mapping ev.task = k then begin
          let letter =
            if ev.failed then 'x'
            else if ev.attempt = 2 then '*'
            else Char.chr (Char.code 'A' + (ev.task mod 26))
          in
          for x = max 0 (col ev.start) to min width (col ev.finish - 1) do
            Bytes.set row x letter
          done
        end)
      t.events;
    Buffer.add_string buf (Printf.sprintf "P%-2d %s\n" k (Bytes.to_string row))
  done;
  Buffer.add_string buf
    (Printf.sprintf "    0%s%.3g  %s\n"
       (String.make (max 0 (width - 8)) ' ')
       horizon
       (if t.success then "(success)" else "(FAILED)"));
  Buffer.contents buf
