module Json = Es_obs.Obs_json

type workload = Serve_cold | Serve_hot | Pareto_sweep | Solve_large

let workloads = [ Serve_cold; Serve_hot; Pareto_sweep; Solve_large ]

let workload_name = function
  | Serve_cold -> "serve-cold"
  | Serve_hot -> "serve-hot"
  | Pareto_sweep -> "pareto-sweep"
  | Solve_large -> "solve-large"

let workload_of_name s =
  List.find_opt (fun w -> String.equal (workload_name w) s) workloads

let serves_requests = function
  | Serve_cold | Serve_hot -> true
  | Pareto_sweep | Solve_large -> false

let tail_min_samples = 100

let end_to_end =
  [
    ("setup_s", "s");
    ("throughput_rps", "req/s");
    ("lat_p50_ms", "ms");
    ("lat_p90_ms", "ms");
    ("heap_peak_mb", "MiB");
  ]

let per_layer =
  [
    ("parse.us_per_req", "us");
    ("resolve.us_per_req", "us");
    ("canonicalize.us_per_req", "us");
    ("cache_lookup.us_per_hit", "us");
    ("cache_lookup.us_per_rescale", "us");
    ("cache_insert.us_per_insert", "us");
    ("serialize.us_per_req", "us");
    ("request.self_us_per_req", "us");
    ("cache.verbatim_hit_ratio", "ratio");
    ("cache.hit_ratio", "ratio");
    ("cache.rescale_reject", "count");
    ("cache.evictions", "count");
    ("solve.share", "ratio");
    ("solve.ms_per_req.continuous", "ms");
    ("solve.ms_per_req.vdd", "ms");
    ("solve.ms_per_req.discrete", "ms");
    ("solve.ms_per_req.incremental", "ms");
    ("solve.ms_per_req.tricrit", "ms");
    ("par.phase_ms_per_batch", "ms");
    ("par.utilization", "ratio");
    ("par.chunks", "count");
    ("par.parks", "count");
    ("barrier.newton_iters", "count");
    ("barrier.centering_steps", "count");
    ("barrier.minimize_ms", "ms");
    ("lp.solves", "count");
    ("lp.pivots", "count");
    ("lp.phase1_pivots", "count");
    ("lp.phase2_pivots", "count");
    ("lp.dual_pivots", "count");
    ("lp.degenerate_pivots", "count");
    ("lp.refactorizations", "count");
    ("lp.warm_starts", "count");
    ("lp.warm_fallbacks", "count");
    ("lp.warm_useful_ratio", "ratio");
    ("lp.solve_ms", "ms");
    ("lp.phase1_ms", "ms");
    ("lp.phase2_ms", "ms");
    ("lp.build_ms", "ms");
    ("lp.densify_ms", "ms");
    ("lp.csc_ms", "ms");
    ("lp.revised_ms", "ms");
    ("gc.alloc_mb_per_op", "MiB");
    ("gc.minor_collections_per_op", "count");
    ("gc.major_collections", "count");
    ("trace.overhead", "ratio");
  ]

type metric = { name : string; unit : string; value : float; samples : int }

type machine = { cores : int; ocaml : string; git_rev : string option }

let read_line_of path =
  match open_in path with
  | exception Sys_error _ -> None
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> try Some (String.trim (input_line ic)) with End_of_file -> None)

(* HEAD is either a detached hash or "ref: refs/heads/<branch>". *)
let git_rev () =
  match read_line_of (Filename.concat ".git" "HEAD") with
  | Some head when String.starts_with ~prefix:"ref: " head ->
    read_line_of
      (Filename.concat ".git" (String.sub head 5 (String.length head - 5)))
  | other -> other

let machine () =
  {
    cores = (Domain.recommended_domain_count () [@lint.allow "P004"]);
    ocaml = Sys.ocaml_version;
    git_rev = git_rev ();
  }

type t = {
  workload : workload;
  seed : int;
  mode : string;
  seconds : float;
  jobs : int;
  rounds : int;
  kernel_ms : float;
  attempted : int;
  failed : int;
  failures : string list;
  metrics : metric list;
}

let schema = "esched-bench/4"

let int i = Json.Num (float_of_int i)

let to_json machine t =
  Json.Obj
    [
      ("schema", Json.Str schema);
      ( "machine",
        Json.Obj
          [
            ("cores", int machine.cores);
            ("ocaml", Json.Str machine.ocaml);
            ("git_rev", match machine.git_rev with Some r -> Json.Str r | None -> Json.Null);
          ] );
      ("workload", Json.Str (workload_name t.workload));
      ("seed", int t.seed);
      ("mode", Json.Str t.mode);
      ("seconds", Json.Num t.seconds);
      ("jobs", int t.jobs);
      ("rounds", int t.rounds);
      ("calibration_kernel_ms", Json.Num t.kernel_ms);
      ("correct", Json.Bool (t.failed = 0));
      ("attempted", int t.attempted);
      ("failed", int t.failed);
      ("fail_share", Json.Num (float_of_int t.failed /. float_of_int (max 1 t.attempted)));
      ("failures", Json.List (List.map (fun s -> Json.Str s) t.failures));
      ( "metrics",
        Json.Obj
          (List.map
             (fun m ->
               ( m.name,
                 Json.Obj
                   [
                     ("value", Json.Num m.value);
                     ("unit", Json.Str m.unit);
                     ("samples", int m.samples);
                   ] ))
             t.metrics) );
    ]

let summary_line t =
  Json.to_compact_string
    (Json.Obj
       [
         ("correct", Json.Bool (t.failed = 0));
         ("attempted", int t.attempted);
         ("failed", int t.failed);
         ( "metrics",
           Json.Obj
             (List.map
                (fun m ->
                  (m.name, Json.Obj [ ("value", Json.Num m.value); ("unit", Json.Str m.unit) ]))
                t.metrics) );
       ])

(* ---- reading ------------------------------------------------------ *)

let ( let* ) = Result.bind

let get name j = Option.to_result ~none:("missing " ^ name) (Json.member name j)

let get_num name j =
  let* v = get name j in
  match v with Json.Num x -> Ok x | _ -> Error (name ^ " is not a number")

let get_int name j = Result.map int_of_float (get_num name j)

let get_str name j =
  let* v = get name j in
  match v with Json.Str s -> Ok s | _ -> Error (name ^ " is not a string")

let metric_of (name, j) =
  let* value = get_num "value" j in
  let* unit = get_str "unit" j in
  let* samples = get_int "samples" j in
  Ok { name; unit; value; samples }

let all_ok xs =
  List.fold_right
    (fun x acc ->
      let* x = x in
      let* acc = acc in
      Ok (x :: acc))
    xs (Ok [])

let of_json j =
  let* s = get_str "schema" j in
  let* () = if String.equal s schema then Ok () else Error ("schema " ^ s) in
  let* w = get_str "workload" j in
  let* workload = Option.to_result ~none:("unknown workload " ^ w) (workload_of_name w) in
  let* seed = get_int "seed" j in
  let* mode = get_str "mode" j in
  let* seconds = get_num "seconds" j in
  let* jobs = get_int "jobs" j in
  let* rounds = get_int "rounds" j in
  let* kernel_ms = get_num "calibration_kernel_ms" j in
  let* attempted = get_int "attempted" j in
  let* failed = get_int "failed" j in
  let* failures =
    match Json.member "failures" j with
    | Some (Json.List xs) ->
      Ok (List.filter_map (function Json.Str s -> Some s | _ -> None) xs)
    | _ -> Error "missing failures"
  in
  let* metrics =
    match Json.member "metrics" j with
    | Some (Json.Obj fields) -> all_ok (List.map metric_of fields)
    | _ -> Error "missing metrics"
  in
  Ok { workload; seed; mode; seconds; jobs; rounds; kernel_ms; attempted; failed; failures; metrics }

let check_machine j =
  match Json.member "machine" j with
  | Some m -> (
    match (Json.member "cores" m, Json.member "ocaml" m, Json.member "git_rev" m) with
    | Some (Json.Num _), Some (Json.Str _), Some (Json.Str _ | Json.Null) -> []
    | _ -> [ "machine block needs cores, ocaml and git_rev" ])
  | None -> [ "missing machine block" ]

let check j =
  match of_json j with
  | Error msg -> msg :: check_machine j
  | Ok t ->
    let catalogue, e2e =
      match t.mode with
      | "run" -> (Some end_to_end, true)
      | "trace" -> (Some per_layer, false)
      | _ -> (None, false)
    in
    let metric_problems =
      match catalogue with
      | None -> [ "unknown mode " ^ t.mode ]
      | Some catalogue ->
        List.filter_map
          (fun (name, unit) ->
            match List.find_opt (fun m -> String.equal m.name name) t.metrics with
            | None -> Some ("missing metric " ^ name)
            | Some m when not (String.equal m.unit unit) ->
              Some (Printf.sprintf "%s has unit %s, expected %s" name m.unit unit)
            | Some m when e2e && m.samples < 1 -> Some (name ^ " has no samples")
            | Some m
              when String.equal name "lat_p90_ms"
                   && serves_requests t.workload
                   && m.samples < tail_min_samples ->
              Some
                (Printf.sprintf "lat_p90_ms from %d samples, fewer than %d" m.samples
                   tail_min_samples)
            | Some _ -> None)
          catalogue
    in
    check_machine j @ metric_problems

(* ---- comparing ---------------------------------------------------- *)

type bound = { metric : string; higher_is_better : bool; bound : float }

let bounds j =
  match Json.member "end_to_end" j with
  | Some (Json.List entries) ->
    all_ok
      (List.map
         (fun e ->
           let* metric = get_str "name" e in
           let* better = get_str "better" e in
           let* bound = get_num "bound" e in
           match better with
           | "higher" -> Ok { metric; higher_is_better = true; bound }
           | "lower" -> Ok { metric; higher_is_better = false; bound }
           | b -> Error ("better must be higher or lower, not " ^ b))
         entries)
  | _ -> Error "no end_to_end list"

let quartiles xs =
  let data = Array.of_list (List.sort Float.compare xs) in
  let ld = Array.length data in
  if ld = 0 then invalid_arg "Report.quartiles: no values"
  else if ld = 1 then (data.(0), data.(0), data.(0))
  else begin
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((data.(j - 1) *. float_of_int (4 - delta)) +. (data.(j) *. float_of_int delta)) /. 4.
    in
    (q 1, q 2, q 3)
  end

type verdict = Ok | Worse | Unresolved

let verdict_name = function Ok -> "ok" | Worse -> "worse" | Unresolved -> "unresolved"

type row = {
  r_workload : workload;
  r_metric : string;
  base_median : float;
  head_median : float;
  change : float;
  spread : float;
  r_bound : float;
  verdict : verdict;
}

let values docs w name =
  List.concat_map
    (fun d ->
      if d.workload = w && String.equal d.mode "run" then
        List.filter_map
          (fun m -> if String.equal m.name name then Some m.value else None)
          d.metrics
      else [])
    docs

let compare bounds ~base ~head =
  List.concat_map
    (fun w ->
      List.filter_map
        (fun b ->
          match (values base w b.metric, values head w b.metric) with
          | [], _ | _, [] -> None
          | bs, hs ->
            let spread_of xs =
              let q1, med, q3 = quartiles xs in
              if med = 0. then 0. else (q3 -. q1) /. Float.abs med
            in
            let _, base_median, _ = quartiles bs and _, head_median, _ = quartiles hs in
            let worse x y = if b.higher_is_better then x < y else x > y in
            let change =
              if base_median = 0. then 0.
              else
                (if b.higher_is_better then base_median -. head_median
                 else head_median -. base_median)
                /. Float.abs base_median
            in
            let spread = Float.max (spread_of bs) (spread_of hs) in
            let all_better = List.for_all (fun h -> List.for_all (fun x -> worse x h) bs) hs in
            let verdict =
              if spread > b.bound && not all_better then Unresolved
              else if change > b.bound then Worse
              else Ok
            in
            Some
              {
                r_workload = w;
                r_metric = b.metric;
                base_median;
                head_median;
                change;
                spread;
                r_bound = b.bound;
                verdict;
              })
        bounds)
    workloads
