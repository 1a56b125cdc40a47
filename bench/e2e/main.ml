(* The repository's benchmark: four workloads over the serving daemon
   and the solvers behind it (see README.md).

     main.exe run     --workload W --seed N --seconds S [--out FILE]
     main.exe trace   --workload W --seed N [--out FILE] [--spans FILE]
     main.exe check   FILE...
     main.exe compare BASE HEAD [--bench BENCHMARK.json]
     main.exe --workload W --seed N --seconds S --trace 0|1

   run and trace print a summary on stderr and, as the last line on
   stdout, the one-line result; --out also writes the full
   esched-bench/4 document.  The last form is the BENCHMARK.json
   command: --trace 0 is run, --trace 1 is trace, which replays one
   round and ignores --seconds. *)

open E2e
module Json = Es_obs.Obs_json

let usage () =
  prerr_endline
    "usage: main.exe run --workload W --seed N --seconds S [--out FILE]\n\
    \       main.exe trace --workload W --seed N [--out FILE] [--spans FILE]\n\
    \       main.exe check FILE...\n\
    \       main.exe compare BASE HEAD [--bench BENCHMARK.json]\n\
    \       main.exe --workload W --seed N --seconds S --trace 0|1\n\
     workloads: serve-cold serve-hot pareto-sweep solve-large";
  exit 2

(* [--flag value] pairs, plus the positional arguments. *)
let parse_flags args =
  let rec go flags pos = function
    | flag :: value :: rest when String.starts_with ~prefix:"--" flag ->
      go ((flag, value) :: flags) pos rest
    | [ flag ] when String.starts_with ~prefix:"--" flag -> usage ()
    | arg :: rest -> go flags (arg :: pos) rest
    | [] -> (List.rev flags, List.rev pos)
  in
  go [] [] args

let flag flags name = List.assoc_opt name flags

let required flags name =
  match flag flags name with Some v -> v | None -> usage ()

let number kind of_string flags name =
  let v = required flags name in
  match of_string v with
  | Some x -> x
  | None ->
    Printf.eprintf "%s needs %s, not %S\n" name kind v;
    exit 2

let summarize (doc : Report.t) =
  Printf.eprintf "%s %s seed %d: %d rounds, %d/%d operations failed, calibration kernel %.3f ms\n"
    (Report.workload_name doc.workload) doc.mode doc.seed doc.rounds doc.failed doc.attempted
    doc.kernel_ms;
  List.iter (fun f -> Printf.eprintf "  FAILED %s\n" f) doc.failures;
  List.iter
    (fun (m : Report.metric) ->
      Printf.eprintf "  %-30s %14.6g %-6s (%d samples)\n" m.name m.value m.unit m.samples)
    doc.metrics

let measure ~trace flags =
  let name = required flags "--workload" in
  let workload =
    match Report.workload_of_name name with
    | Some w -> w
    | None ->
      Printf.eprintf "unknown workload %S\n" name;
      usage ()
  in
  let seed = number "an integer" int_of_string_opt flags "--seed" in
  if seed < 0 then usage ();
  let doc =
    if trace then
      Workloads.trace workload ~seed
        ~spans_out:(Option.value ~default:"e2e-spans.ndjson" (flag flags "--spans"))
    else
      Workloads.run workload ~seed
        ~seconds:(number "a number" float_of_string_opt flags "--seconds")
  in
  summarize doc;
  Option.iter
    (fun path -> Bench_common.write_json ~path (Report.to_json (Report.machine ()) doc))
    (flag flags "--out");
  print_endline (Report.summary_line doc)

let read_json path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> Json.of_string (really_input_string ic (in_channel_length ic)))

let check paths =
  let bad =
    List.filter
      (fun path ->
        let problems =
          match read_json path with
          | j -> Report.check j
          | exception (Sys_error msg | Json.Parse_error msg) -> [ msg ]
        in
        List.iter (fun p -> Printf.printf "%s: %s\n" path p) problems;
        if problems = [] then Printf.printf "%s: ok\n" path;
        problems <> [])
      paths
  in
  exit (if bad = [] then 0 else 1)

(* A directory stands for every .json document in it. *)
let documents path =
  let files =
    if Sys.is_directory path then
      List.map (Filename.concat path)
        (List.filter
           (fun f -> Filename.check_suffix f ".json")
           (List.sort String.compare (Array.to_list (Sys.readdir path))))
    else [ path ]
  in
  List.map
    (fun f ->
      match Report.of_json (read_json f) with
      | Ok doc -> doc
      | Error msg ->
        Printf.eprintf "%s: %s\n" f msg;
        exit 2)
    files

let compare_sets flags base head =
  let bounds =
    match Report.bounds (read_json (Option.value ~default:"BENCHMARK.json" (flag flags "--bench"))) with
    | Ok b -> b
    | Error msg ->
      Printf.eprintf "bounds: %s\n" msg;
      exit 2
  in
  let rows = Report.compare bounds ~base:(documents base) ~head:(documents head) in
  Printf.printf "%-13s %-15s %12s %12s %8s %8s %6s  %s\n" "workload" "metric" "base" "head"
    "worse%" "spread%" "bound%" "verdict";
  List.iter
    (fun (r : Report.row) ->
      Printf.printf "%-13s %-15s %12.6g %12.6g %8.2f %8.2f %6.1f  %s\n"
        (Report.workload_name r.r_workload) r.r_metric r.base_median r.head_median
        (100. *. r.change) (100. *. r.spread) (100. *. r.r_bound)
        (Report.verdict_name r.verdict))
    rows;
  exit (if rows <> [] && List.for_all (fun (r : Report.row) -> r.verdict = Report.Ok) rows then 0 else 1)

let () =
  match Array.to_list Sys.argv with
  | [] -> usage ()
  | _ :: "run" :: args -> measure ~trace:false (fst (parse_flags args))
  | _ :: "trace" :: args -> measure ~trace:true (fst (parse_flags args))
  | _ :: "check" :: (_ :: _ as paths) -> check paths
  | _ :: "compare" :: args -> (
    match parse_flags args with
    | flags, [ base; head ] -> compare_sets flags base head
    | _ -> usage ())
  | _ :: args -> (
    let flags, pos = parse_flags args in
    match (pos, flag flags "--trace") with
    | [], Some "0" -> measure ~trace:false flags
    | [], Some "1" -> measure ~trace:true flags
    | _ -> usage ())
