(* Dedicated coverage for Sched.Validate: one unit test per violation
   constructor, plus a QCheck2 property that [check] and [is_feasible]
   agree on randomly generated (and randomly broken) schedules. *)

module CGen = Es_check.Gen

let levels = [| 0.2; 0.6; 1.0 |]
let cont = Speed.continuous ~fmin:0.2 ~fmax:1.0
let rel = Rel.make ~lambda0:1e-5 ~sensitivity:3. ~fmin:0.2 ~fmax:1.0 ~frel:0.8 ()

let chain_sched ~speed =
  let dag = Dag.make ?labels:None ~weights:[| 1.; 1. |] ~edges:[ (0, 1) ] in
  Schedule.uniform (Mapping.single_processor dag) ~speed

let has p viols = List.exists p viols

let test_feasible_is_clean () =
  let sched = chain_sched ~speed:1.0 in
  (match Validate.check ~deadline:2.5 ~model:cont sched with
  | [] -> ()
  | v :: _ -> Alcotest.fail (Validate.explain (Schedule.dag sched) v));
  Alcotest.(check bool) "is_feasible agrees" true
    (Validate.is_feasible ~deadline:2.5 ~model:cont sched)

let test_inadmissible_speed () =
  let sched = chain_sched ~speed:1.5 in
  let viols = Validate.check ~deadline:100. ~model:cont sched in
  Alcotest.(check bool) "above fmax flagged" true
    (has (function Validate.Inadmissible_speed _ -> true | _ -> false) viols);
  (* VDD is stricter: parts must sit exactly on a level *)
  let off_level = chain_sched ~speed:0.5 in
  let viols = Validate.check ~deadline:100. ~model:(Speed.vdd_hopping levels) off_level in
  Alcotest.(check bool) "off-level vdd speed flagged" true
    (has (function Validate.Inadmissible_speed _ -> true | _ -> false) viols)

let test_speed_change_forbidden () =
  let dag = Dag.make ?labels:None ~weights:[| 1.1 |] ~edges:[] in
  let mapping = Mapping.single_processor dag in
  (* two parts summing to the task's work: legal under VDD-HOPPING,
     forbidden under DISCRETE/INCREMENTAL *)
  let execs =
    [| [ [ { Schedule.speed = 1.0; time = 0.5 }; { Schedule.speed = 0.6; time = 1.0 } ] ] |]
  in
  let sched = Schedule.make mapping ~executions:execs in
  let viols = Validate.check ~model:(Speed.discrete levels) sched in
  Alcotest.(check bool) "mid-task hop flagged under discrete" true
    (has (function Validate.Speed_change_forbidden _ -> true | _ -> false) viols);
  let viols_vdd = Validate.check ~model:(Speed.vdd_hopping levels) sched in
  Alcotest.(check bool) "same schedule fine under vdd" false
    (has (function Validate.Speed_change_forbidden _ -> true | _ -> false) viols_vdd)

let test_deadline_exceeded () =
  let sched = chain_sched ~speed:0.2 in
  (* serial work 2 at speed 0.2: makespan 10 *)
  let viols = Validate.check ~deadline:5. ~model:cont sched in
  Alcotest.(check bool) "late schedule flagged" true
    (has
       (function
         | Validate.Deadline_exceeded { makespan; deadline } ->
           Float.abs (makespan -. 10.) < 1e-9 && Float.abs (deadline -. 5.) < 1e-9
         | _ -> false)
       viols)

let test_reliability_violated () =
  (* a single slow execution has a much higher failure probability than
     the frel target *)
  let sched = chain_sched ~speed:0.2 in
  let viols = Validate.check ~rel ~model:cont sched in
  Alcotest.(check bool) "slow single execution flagged" true
    (has (function Validate.Reliability_violated _ -> true | _ -> false) viols);
  let fast = chain_sched ~speed:1.0 in
  Alcotest.(check bool) "fast execution satisfies the target" false
    (has
       (function Validate.Reliability_violated _ -> true | _ -> false)
       (Validate.check ~rel ~model:cont fast))

(* Random schedules — genuine solver output and deliberately broken
   variants alike — on which the two entry points must agree. *)
let qcheck_check_iff_is_feasible =
  let open QCheck2 in
  let gen =
    Gen.(
      Qgen.qgen () >>= fun inst ->
      float_range 0.1 1.3 >>= fun speed ->
      float_range 0.5 2. >|= fun dscale -> (inst, speed, dscale))
  in
  Test.make ~name:"Validate.check = [] iff Validate.is_feasible" ~count:200 gen
    (fun (inst, speed, dscale) ->
      let sched = Schedule.uniform (CGen.mapping inst) ~speed in
      let deadline = dscale *. CGen.deadline inst in
      List.for_all
        (fun model ->
          let viols = Validate.check ~deadline ~model sched in
          let empty = match viols with [] -> true | _ :: _ -> false in
          Bool.equal (Validate.is_feasible ~deadline ~model sched) empty)
        [
          cont;
          Speed.vdd_hopping levels;
          Speed.discrete levels;
          Speed.incremental ~fmin:0.2 ~fmax:1.0 ~delta:0.4;
        ])

let suite =
  ( "validate",
    [
      Alcotest.test_case "feasible schedule is clean" `Quick test_feasible_is_clean;
      Alcotest.test_case "inadmissible speed" `Quick test_inadmissible_speed;
      Alcotest.test_case "speed change forbidden" `Quick test_speed_change_forbidden;
      Alcotest.test_case "deadline exceeded" `Quick test_deadline_exceeded;
      Alcotest.test_case "reliability violated" `Quick test_reliability_violated;
      QCheck_alcotest.to_alcotest qcheck_check_iff_is_feasible;
    ] )
