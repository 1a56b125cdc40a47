(* Tests of the benchmark itself: seeded inputs are reproducible, every
   workload answers correctly at a tiny size, the traced mirror answers
   byte for byte as the server does, and the result checker and
   comparator read documents the way BENCHMARK.json expects. *)

open E2e
module Json = Es_obs.Obs_json

let sizes = Workloads.tiny_sizes

(* ---- inputs --------------------------------------------------------- *)

let cold seed =
  (Inputs.serve_cold ~seed ~blocks:1 ~per_block:sizes.cold_requests).(0)
  |> Array.map (fun (r : Inputs.request) -> r.line)

let hot seed =
  let h =
    Inputs.serve_hot ~seed ~bases:sizes.hot_bases ~continuous_n:sizes.hot_continuous_n
      ~vdd_n:sizes.hot_vdd_n ~requests:sizes.hot_requests
  in
  Array.append
    (Array.map (fun (r : Inputs.request) -> r.line) h.bases)
    (Array.map (fun (r : Inputs.hot_request) -> r.hline) h.trace)

let fronts seed =
  List.map
    (fun (f : Inputs.front_input) ->
      Printf.sprintf "%s|%s|%s"
        (String.concat "," (List.map (Printf.sprintf "%h") f.deadlines))
        (String.concat "," (Array.to_list (Array.map (Printf.sprintf "%h") f.levels)))
        (String.concat ","
           (Array.to_list (Array.map (Printf.sprintf "%h") (Dag.weights (Mapping.dag f.mapping))))))
    (List.concat
       (Array.to_list
          (Inputs.pareto ~seed ~blocks:sizes.front_graphs ~sizes:sizes.front_sizes
             ~points:sizes.front_points)))
  |> Array.of_list

let large seed =
  Inputs.large ~seed ~blocks:sizes.large_namings ~continuous_tiles:sizes.large_continuous_tiles
    ~discrete_tiles:sizes.large_discrete_tiles ~vdd_tiles:sizes.large_vdd_tiles
    ~vdd_lu_tiles:sizes.large_vdd_lu_tiles ~stencil:sizes.large_stencil
  |> Array.to_list |> List.concat
  |> List.map (fun (l : Inputs.large) ->
         Printf.sprintf "%s %h %s" l.name l.request.deadline
           (String.concat ","
              (List.map
                 (fun (a, b) -> Printf.sprintf "%d>%d" a b)
                 (Dag.edges (Mapping.dag l.request.mapping)))))
  |> Array.of_list

let test_reproducible () =
  List.iter
    (fun (name, gen) ->
      Alcotest.(check (array string)) (name ^ ": same seed, same bytes") (gen 7) (gen 7);
      Alcotest.(check bool) (name ^ ": another seed differs") false (gen 7 = gen 8))
    [ ("serve-cold", cold); ("serve-hot", hot); ("pareto-sweep", fronts); ("solve-large", large) ]

let test_cold_mix () =
  let per_block = 100 in
  Array.iter
    (fun block ->
      List.iter
        (fun (kind, share, _) ->
          let count =
            Array.fold_left
              (fun n (r : Inputs.request) -> if r.kind = kind then n + 1 else n)
              0 block
          in
          Alcotest.(check int) "every block holds the class's share" share count)
        Inputs.cold_mix)
    (Inputs.serve_cold ~seed:3 ~blocks:2 ~per_block)

(* ---- the traced mirror ---------------------------------------------- *)

let test_mirror_identical () =
  let infeasible =
    {|{"id":"late","tasks":[1,2],"edges":[[0,1]],"model":{"kind":"continuous","fmin":0.1,"fmax":1},"deadline":0.5}|}
  in
  let cold = cold 11 in
  (* repeats, an error and an infeasible request exercise every
     branch of the server's window *)
  let lines =
    Array.concat [ cold; hot 12; [| cold.(0); "{\"id\": 1,"; infeasible; infeasible |] ]
  in
  Es_par.Pool.with_pool ~domains:2 (fun pool ->
      let served = Serving.replay (Serving.server ~jobs:2) ~pool:(Some pool) lines in
      let mirrored =
        Serving.mirror_replay (Serving.mirror ()) ~pool:(Some pool) ~spans:(Spans.create ())
          ~stats:(Serving.new_stats ()) lines
      in
      Alcotest.(check (list string)) "byte-identical responses" served.responses
        mirrored.responses)

let test_self_time () =
  let s = Spans.create () in
  Spans.record s ~name:Spans.root ~rid:0 ~t0:0. ~t1:10.;
  Spans.record s ~name:"parse" ~rid:0 ~t0:1. ~t1:3.;
  Spans.record s ~name:"solve" ~rid:0 ~t0:2. ~t1:6.;
  Spans.record s ~name:"parse" ~rid:1 ~t0:4. ~t1:5.;
  let selfs = Spans.self_times s in
  let self name =
    match List.find_opt (fun (n, _, _) -> String.equal n name) selfs with
    | Some (_, t, c) -> (t, c)
    | None -> Alcotest.fail ("no span " ^ name)
  in
  Alcotest.(check (pair (float 1e-12) int)) "request minus its children" (5., 1) (self Spans.root);
  Alcotest.(check (pair (float 1e-12) int)) "children count in full" (3., 2) (self "parse")

(* ---- the workloads at a tiny size ----------------------------------- *)

let test_run w () =
  let doc = Workloads.run ~sizes w ~seed:5 ~seconds:0. in
  Alcotest.(check int) "no operation failed" 0 doc.failed;
  Alcotest.(check bool) "operations ran" true (doc.attempted > 0);
  Alcotest.(check (list string)) "every end-to-end metric, in order"
    (List.map fst Report.end_to_end)
    (List.map (fun (m : Report.metric) -> m.name) doc.metrics);
  List.iter
    (fun (m : Report.metric) ->
      Alcotest.(check bool) (m.name ^ " is positive") true (m.value > 0. && m.samples > 0))
    doc.metrics

let test_trace w () =
  let spans_out = Filename.temp_file "e2e-spans" ".ndjson" in
  let doc =
    Fun.protect
      ~finally:(fun () -> Sys.remove spans_out)
      (fun () -> Workloads.trace ~sizes w ~seed:5 ~spans_out)
  in
  Alcotest.(check (list string)) "no failure" [] doc.failures;
  Alcotest.(check (list string)) "every per-layer metric, in order"
    (List.map fst Report.per_layer)
    (List.map (fun (m : Report.metric) -> m.name) doc.metrics)

(* ---- documents ------------------------------------------------------ *)

let doc ?(workload = Report.Serve_cold) ?(mode = "run") values =
  let catalogue = if String.equal mode "run" then Report.end_to_end else Report.per_layer in
  {
    Report.workload;
    seed = 1;
    mode;
    seconds = 1.;
    jobs = 1;
    rounds = 1;
    kernel_ms = 1.;
    attempted = 1000;
    failed = 0;
    failures = [];
    metrics =
      List.map
        (fun (name, unit) ->
          let value = Option.value ~default:1. (List.assoc_opt name values) in
          { Report.name; unit; value; samples = 1000 })
        catalogue;
  }

let machine = { Report.cores = 2; ocaml = "5.1.1"; git_rev = None }

let without metric j =
  match j with
  | Json.Obj fields ->
    Json.Obj
      (List.map
         (function
           | "metrics", Json.Obj ms ->
             ("metrics", Json.Obj (List.filter (fun (n, _) -> not (String.equal n metric)) ms))
           | field -> field)
         fields)
  | other -> other

let test_check () =
  List.iter
    (fun mode ->
      let j = Report.to_json machine (doc ~mode []) in
      Alcotest.(check (list string)) (mode ^ ": complete document") [] (Report.check j);
      let name =
        match if String.equal mode "run" then Report.end_to_end else Report.per_layer with
        | _ :: _ :: (name, _) :: _ -> name
        | _ -> Alcotest.fail "short catalogue"
      in
      Alcotest.(check bool) (mode ^ ": a metric removed is rejected") true
        (Report.check (without name j) <> []))
    [ "run"; "trace" ];
  let thin =
    Report.to_json machine
      {
        (doc []) with
        metrics =
          List.map
            (fun (m : Report.metric) ->
              if String.equal m.name "lat_p90_ms" then { m with samples = 99 } else m)
            (doc []).metrics;
      }
  in
  Alcotest.(check bool) "a p90 from 99 samples is rejected" true (Report.check thin <> [])

let test_summary_line () =
  match Json.of_string (Report.summary_line (doc [])) with
  | Json.Obj fields ->
    Alcotest.(check (list string)) "exactly the summary keys"
      [ "correct"; "attempted"; "failed"; "metrics" ] (List.map fst fields)
  | _ -> Alcotest.fail "not an object"

let test_quartiles () =
  (* statistics.quantiles(range(1, 11), n=4) *)
  let q1, med, q3 = Report.quartiles (List.init 10 (fun i -> float_of_int (i + 1))) in
  Alcotest.(check (list (float 1e-12))) "exclusive method" [ 2.75; 5.5; 8.25 ] [ q1; med; q3 ]

let test_compare () =
  let bounds =
    [ { Report.metric = "throughput_rps"; higher_is_better = true; bound = 0.1 } ]
  in
  let runs xs = List.map (fun x -> doc [ ("throughput_rps", x) ]) xs in
  let verdict base head =
    match Report.compare bounds ~base:(runs base) ~head:(runs head) with
    | [ r ] -> Report.verdict_name r.verdict
    | rows -> Alcotest.failf "%d rows" (List.length rows)
  in
  Alcotest.(check string) "within the bound" "ok" (verdict [ 100.; 101.; 99. ] [ 95.; 96.; 94. ]);
  Alcotest.(check string) "beyond the bound" "worse" (verdict [ 100.; 101.; 99. ] [ 80.; 81.; 79. ]);
  Alcotest.(check string) "spread wider than the bound" "unresolved"
    (verdict [ 60.; 100.; 140. ] [ 95.; 96.; 94. ])

(* BENCHMARK.json is what the benchmark's users read: it must list
   exactly the workloads and metrics the program reports. *)
let test_benchmark_json () =
  let ic = open_in_bin "../../BENCHMARK.json" in
  let j =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> Json.of_string (really_input_string ic (in_channel_length ic)))
  in
  let entries key fields =
    match Json.member key j with
    | Some (Json.List es) ->
      List.map
        (fun e ->
          List.map
            (fun f -> match Json.member f e with Some (Json.Str s) -> s | _ -> Alcotest.fail f)
            fields)
        es
    | _ -> Alcotest.fail ("no " ^ key)
  in
  let pairs = List.map (fun (n, u) -> [ n; u ]) in
  Alcotest.(check (list (list string))) "workloads"
    (List.map (fun w -> [ Report.workload_name w ]) Report.workloads)
    (entries "workloads" [ "name" ]);
  Alcotest.(check (list (list string))) "end-to-end metrics" (pairs Report.end_to_end)
    (entries "end_to_end" [ "name"; "unit" ]);
  Alcotest.(check (list (list string))) "per-layer metrics" (pairs Report.per_layer)
    (entries "per_layer" [ "name"; "unit" ]);
  match Report.bounds j with
  | Ok bounds ->
    Alcotest.(check int) "every end-to-end metric is bounded" (List.length Report.end_to_end)
      (List.length bounds)
  | Error msg -> Alcotest.fail msg

let () =
  let per_workload f =
    List.map
      (fun w -> Alcotest.test_case (Report.workload_name w) `Quick (f w))
      Report.workloads
  in
  Alcotest.run "e2e"
    [
      ( "inputs",
        [
          Alcotest.test_case "seeded and reproducible" `Quick test_reproducible;
          Alcotest.test_case "fixed class mix per block" `Quick test_cold_mix;
        ] );
      ( "mirror",
        [
          Alcotest.test_case "byte-identical to Server.process_batch" `Quick test_mirror_identical;
          Alcotest.test_case "self time" `Quick test_self_time;
        ] );
      ("run", per_workload test_run);
      ("trace", per_workload test_trace);
      ( "report",
        [
          Alcotest.test_case "check" `Quick test_check;
          Alcotest.test_case "summary line" `Quick test_summary_line;
          Alcotest.test_case "quartiles" `Quick test_quartiles;
          Alcotest.test_case "compare" `Quick test_compare;
          Alcotest.test_case "BENCHMARK.json" `Quick test_benchmark_json;
        ] );
    ]
