module Rng = Es_util.Rng
module Json = Es_obs.Obs_json

type failure = {
  relation : string;
  trial : int;
  seed : int;
  message : string;
  inst : Gen.inst;
  original : Gen.inst;
  shrink_steps : int;
}

type summary = {
  name : string;
  attempted : int;
  passed : int;
  skipped : int;
  failures : failure list;
}

type report = { base_seed : int; trials : int; summaries : summary list }

(* An oracle's job is to judge, not to crash: any escaped exception is
   itself a counterexample, so the deliberately catch-all handler here
   is the point of the function. *)
let protected_run (r : Relation.t) inst =
  try r.Relation.run inst with
  | e -> Relation.Fail ("uncaught exception: " ^ Printexc.to_string e)

let shrink_to_minimal ?(budget = 400) relation inst =
  let budget = ref budget in
  let still_fails i =
    decr budget;
    match protected_run relation i with
    | Relation.Fail _ -> true
    | Relation.Pass | Relation.Skip _ -> false
  in
  let rec first_failing seq =
    if !budget <= 0 then None
    else
      match seq () with
      | Seq.Nil -> None
      | Seq.Cons (c, rest) -> if still_fails c then Some c else first_failing rest
  in
  let rec descend current steps =
    if !budget <= 0 then (current, steps)
    else
      match first_failing (Gen.shrink current) with
      | None -> (current, steps)
      | Some simpler -> descend simpler (steps + 1)
  in
  descend inst 0

let run_relation ?(max_failures = 5) ~seed ~trials relation =
  let passed = ref 0 and skipped = ref 0 and attempted = ref 0 in
  let failures = ref [] in
  let t = ref 0 in
  while !t < trials && List.length !failures < max_failures do
    let trial_seed = seed + !t in
    let rng = Rng.create ~seed:trial_seed in
    let inst = Gen.generate ~shapes:relation.Relation.shapes rng in
    incr attempted;
    (match protected_run relation inst with
    | Relation.Pass -> incr passed
    | Relation.Skip _ -> incr skipped
    | Relation.Fail first_message ->
      let shrunk, shrink_steps = shrink_to_minimal relation inst in
      let message =
        match protected_run relation shrunk with
        | Relation.Fail m -> m
        | Relation.Pass | Relation.Skip _ -> first_message
      in
      failures :=
        {
          relation = relation.Relation.name;
          trial = !t;
          seed = trial_seed;
          message;
          inst = shrunk;
          original = inst;
          shrink_steps;
        }
        :: !failures);
    incr t
  done;
  {
    name = relation.Relation.name;
    attempted = !attempted;
    passed = !passed;
    skipped = !skipped;
    failures = List.rev !failures;
  }

let run ?max_failures ~seed ~trials relations =
  {
    base_seed = seed;
    trials;
    summaries = List.map (run_relation ?max_failures ~seed ~trials) relations;
  }

let ok report = List.for_all (fun s -> match s.failures with [] -> true | _ :: _ -> false) report.summaries

let repro f = Printf.sprintf "escheck --relation %s --seed %d --trials 1" f.relation f.seed

let render report =
  let buf = Buffer.create 1024 in
  let pf fmt = Printf.bprintf buf fmt in
  pf "escheck: base seed %d, %d trials per relation\n\n" report.base_seed report.trials;
  List.iter
    (fun s ->
      pf "  %-24s %5d run %5d pass %5d skip %5d fail\n" s.name s.attempted s.passed s.skipped
        (List.length s.failures))
    report.summaries;
  let failures = List.concat_map (fun s -> s.failures) report.summaries in
  List.iteri
    (fun i f ->
      pf "\ncounterexample %d: relation %s, trial %d (seed %d)\n" (i + 1) f.relation f.trial
        f.seed;
      pf "  verdict: %s\n" f.message;
      pf "  shrunk %d step%s to:\n" f.shrink_steps (if f.shrink_steps = 1 then "" else "s");
      String.split_on_char '\n' (Gen.describe f.inst)
      |> List.iter (fun line -> pf "    %s\n" line);
      pf "  reproduce with: %s\n" (repro f))
    failures;
  (match failures with
  | [] -> pf "\nall relations hold: no counterexample found\n"
  | _ :: _ -> pf "\n%d counterexample(s) found\n" (List.length failures));
  Buffer.contents buf

let failure_to_json f =
  Json.Obj
    [
      ("relation", Json.Str f.relation);
      ("trial", Json.Num (float_of_int f.trial));
      ("seed", Json.Num (float_of_int f.seed));
      ("message", Json.Str f.message);
      ("shrink_steps", Json.Num (float_of_int f.shrink_steps));
      ("repro", Json.Str (repro f));
      ("instance", Gen.to_json f.inst);
      ("original_instance", Gen.to_json f.original);
    ]

let summary_to_json s =
  Json.Obj
    [
      ("relation", Json.Str s.name);
      ("attempted", Json.Num (float_of_int s.attempted));
      ("passed", Json.Num (float_of_int s.passed));
      ("skipped", Json.Num (float_of_int s.skipped));
      ("failed", Json.Num (float_of_int (List.length s.failures)));
      ("failures", Json.List (List.map failure_to_json s.failures));
    ]

let to_json report =
  Json.Obj
    [
      ("tool", Json.Str "escheck");
      ("base_seed", Json.Num (float_of_int report.base_seed));
      ("trials", Json.Num (float_of_int report.trials));
      ("ok", Json.Bool (ok report));
      ("relations", Json.List (List.map summary_to_json report.summaries));
    ]
