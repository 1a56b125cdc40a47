module Pool = Es_par.Pool
module Obs = Es_obs.Obs
module Stats = Es_util.Stats
module Problem = Es_lp.Problem

type sizes = {
  cold_requests : int;
  hot_bases : int;
  hot_continuous_n : int * int;
  hot_vdd_n : int * int;
  hot_requests : int;
  front_graphs : int;
  front_sizes : int list;
  front_points : int;
  large_namings : int;
  large_continuous_tiles : int;
  large_discrete_tiles : int;
  large_vdd_tiles : int;
  large_vdd_lu_tiles : int;
  large_stencil : int;
}

let default_sizes =
  {
    cold_requests = 560;
    hot_bases = 64;
    hot_continuous_n = (8, 20);
    hot_vdd_n = (16, 60);
    hot_requests = 3000;
    front_graphs = 4;
    front_sizes = [ 60; 110; 235 ];
    front_points = 25;
    large_namings = 6;
    large_continuous_tiles = 5;
    large_discrete_tiles = 4;
    large_vdd_tiles = 10;
    large_vdd_lu_tiles = 8;
    large_stencil = 15;
  }

let tiny_sizes =
  {
    cold_requests = 14;
    hot_bases = 4;
    hot_continuous_n = (6, 10);
    hot_vdd_n = (8, 12);
    hot_requests = 40;
    front_graphs = 2;
    front_sizes = [ 12 ];
    front_points = 6;
    large_namings = 2;
    large_continuous_tiles = 3;
    (* 30 tasks: above the solver's exact threshold (14), so round-up as
       at the default size, not branch-and-bound *)
    large_discrete_tiles = 4;
    large_vdd_tiles = 3;
    large_vdd_lu_tiles = 3;
    large_stencil = 3;
  }

(* Every workload runs inline, without a pool.  Par.parallel_map
   solves the first item of a list inline while it sizes its chunks, so
   the two solves of a serve window, or the two deadline blocks of a
   front, run one after the other anyway; a pool of two added domain
   hand-offs and stop-the-world collections that wait for the slower of
   two virtual CPUs.  At jobs 2 serve-cold ran about 1.5x slower with
   twice the run-to-run spread, and pareto-sweep up to 2x slower, its
   round time ranging from 2.2 s to 9.8 s over two hours on one
   machine. *)
let jobs = 1

(* ---- sessions ----------------------------------------------------- *)

type round = {
  latencies : float array;
      (** seconds, one per timed operation: a window of requests, a
          front or a solve *)
  outputs : string list;  (** one rendering per request, front or solve *)
  check : unit -> string list;  (** one message per failed request, front or solve *)
}

type traced = {
  t_outputs : string list;
  solve_phase_s : float;  (** wall of the phases that solved something *)
  layers : (string * float * int) list;
}

(* What one set-up leaves behind: a workload's inputs and the state
   that serves them.  [round ~between] serves every input once and
   times each operation, running [between] before each, off the clock;
   it may be called once, because serving changes the state (a cold
   request fills the cache).  [trace ()] prepares the traced round
   (priming the mirror's cache, or solve-large's LP split) before
   telemetry is switched on. *)
type session = {
  requests : int;  (** requests, fronts or solves a round serves *)
  round : between:(unit -> unit) -> Pool.t option -> round;
  trace : unit -> Pool.t option -> Spans.t -> traced;
}

let per count total = if count = 0 then 0. else total /. float_of_int count

(* solve.ms_per_req.<class> from summed solve walls and counts per
   engine class. *)
let solve_ms_per_req by_class =
  List.map
    (fun cls ->
      let total, count = Option.value ~default:(0., 0) (Hashtbl.find_opt by_class cls) in
      ("solve.ms_per_req." ^ cls, 1e3 *. per count total, count))
    Inputs.engine_classes

let serve_layers (s : Serving.stats) =
  let answered = s.verbatim_hits + s.hits + s.rescale_hits in
  let busy = Hashtbl.fold (fun _ (t, _) acc -> acc +. t) s.solve_s 0. in
  [
    ("cache_lookup.us_per_hit", 1e6 *. per s.hits s.hit_lookup_s, s.hits);
    ("cache_lookup.us_per_rescale", 1e6 *. per s.rescale_hits s.rescale_lookup_s, s.rescale_hits);
    ("cache.verbatim_hit_ratio", per s.requests (float_of_int s.verbatim_hits), s.requests);
    ("cache.hit_ratio", per s.requests (float_of_int answered), s.requests);
    ("par.phase_ms_per_batch", 1e3 *. per s.phases s.phase_s, s.phases);
    ("par.utilization", busy /. Float.max 1e-12 (float_of_int jobs *. s.phase_s), s.phases);
  ]
  @ solve_ms_per_req s.solve_s

let lines_of (rs : Inputs.request array) = Array.map (fun (r : Inputs.request) -> r.line) rs

(* Distinct requests on a fresh server: every one misses the cache. *)
let serve_cold sizes ~seed =
  let requests = (Inputs.serve_cold ~seed ~blocks:1 ~per_block:sizes.cold_requests).(0) in
  let lines = lines_of requests in
  let srv = Serving.server ~jobs in
  {
    requests = Array.length lines;
    round =
      (fun ~between pool ->
        let r = Serving.replay ~between srv ~pool lines in
        {
          latencies = r.latencies;
          outputs = r.responses;
          check = (fun () -> Checks.serve_cold requests r.responses);
        });
    trace =
      (fun () ->
        let m = Serving.mirror () in
        fun pool spans ->
          let stats = Serving.new_stats () in
          let r = Serving.mirror_replay m ~pool ~spans ~stats lines in
          { t_outputs = r.responses; solve_phase_s = stats.phase_s; layers = serve_layers stats });
  }

(* The set-up primes a fresh server with the base instances; the round
   then only hits. *)
let serve_hot sizes ~seed =
  let hot =
    Inputs.serve_hot ~seed ~bases:sizes.hot_bases ~continuous_n:sizes.hot_continuous_n
      ~vdd_n:sizes.hot_vdd_n ~requests:sizes.hot_requests
  in
  let bases = lines_of hot.bases in
  let lines = Array.map (fun (h : Inputs.hot_request) -> h.hline) hot.trace in
  let srv = Serving.server ~jobs in
  let primed = (Serving.replay srv ~pool:None bases).responses in
  {
    requests = Array.length lines;
    round =
      (fun ~between pool ->
        let r = Serving.replay ~between srv ~pool lines in
        {
          latencies = r.latencies;
          outputs = r.responses;
          check = (fun () -> Checks.serve_hot hot ~primed r.responses);
        });
    trace =
      (fun () ->
        let m = Serving.mirror () in
        ignore
          (Serving.mirror_replay m ~pool:None ~spans:(Spans.create ())
             ~stats:(Serving.new_stats ()) bases);
        fun pool spans ->
          let stats = Serving.new_stats () in
          let r = Serving.mirror_replay m ~pool ~spans ~stats lines in
          { t_outputs = r.responses; solve_phase_s = stats.phase_s; layers = serve_layers stats });
  }

(* Time each operation from a compacted heap, so that none collects
   another's garbage and each starts the collector's cycle afresh.
   [between] runs before each, off the clock.  With [spans], also
   record each as a request with one solve span. *)
let operations ?(between = ignore) ?spans items f =
  let n = List.length items in
  let latencies = Array.make n 0. in
  let results =
    List.mapi
      (fun i x ->
        between ();
        Gc.compact ();
        let t0 = Obs.now () in
        let y = f x in
        let t1 = Obs.now () in
        latencies.(i) <- t1 -. t0;
        Option.iter
          (fun s ->
            Spans.record s ~name:"solve" ~rid:i ~t0 ~t1;
            Spans.record s ~name:Spans.root ~rid:i ~t0 ~t1:(Obs.now ()))
          spans;
        y)
      items
  in
  (latencies, results)

let render_front points =
  String.concat " "
    (List.map (fun (p : Pareto.point) -> Printf.sprintf "%h:%h" p.deadline p.energy) points)

let pareto_sweep sizes ~seed =
  let inputs =
    List.concat
      (Array.to_list
         (Inputs.pareto ~seed ~blocks:sizes.front_graphs ~sizes:sizes.front_sizes
            ~points:sizes.front_points))
  in
  let front pool (f : Inputs.front_input) =
    Pareto.bicrit_vdd_front ?pool ~warm:true ~levels:f.levels ~deadlines:f.deadlines f.mapping
  in
  {
    requests = List.length inputs;
    round =
      (fun ~between pool ->
        let latencies, fronts = operations ~between inputs (front pool) in
        {
          latencies;
          outputs = List.map render_front fronts;
          check = (fun () -> Checks.pareto inputs fronts);
        });
    trace =
      (fun () pool spans ->
        let latencies, fronts = operations ~spans inputs (front pool) in
        let walls = Array.fold_left ( +. ) 0. latencies in
        let count = Array.length latencies in
        (* LP time is the only work the fronts do on the workers *)
        let lp_busy = Obs.timer_total (Obs.timer "lp_solve") in
        {
          t_outputs = List.map render_front fronts;
          solve_phase_s = walls;
          layers =
            [
              ("solve.ms_per_req.vdd", 1e3 *. per count walls, count);
              ("par.phase_ms_per_batch", 1e3 *. per count walls, count);
              ("par.utilization", lp_busy /. Float.max 1e-12 (float_of_int jobs *. walls), count);
            ];
        });
  }

(* Like the server, turn a solver exception into an error answer. *)
let solve (l : Inputs.large) =
  try Solver.solve l.request with e -> Error ("solver error: " ^ Printexc.to_string e)

let render_answer (l : Inputs.large) = function
  | Ok (a : Solver.answer) -> Printf.sprintf "%s %s %h" l.name a.engine a.energy
  | Error msg -> Printf.sprintf "%s error %s" l.name msg

(* The VDD-HOPPING solve split into its public steps: build the LP,
   densify its rows, compress them to CSC, run the revised simplex. *)
let lp_split inputs =
  let steps = [| 0.; 0.; 0.; 0. |] in
  let timed k f =
    let t0 = Obs.now () in
    let v = f () in
    steps.(k) <- steps.(k) +. (Obs.now () -. t0);
    v
  in
  let vdd =
    List.filter_map
      (fun (l : Inputs.large) ->
        match l.request.model with
        | Speed.Vdd_hopping levels -> Some (l.request, levels)
        | Speed.Continuous _ | Speed.Discrete _ | Speed.Incremental _ -> None)
      inputs
  in
  List.iter
    (fun ((r : Solver.request), levels) ->
      let lp = timed 0 (fun () -> Bicrit_vdd.lp ~deadline:r.deadline ~levels r.mapping) in
      let obj, rows =
        timed 1 (fun () -> (Problem.objective_coeffs lp, Problem.constraints lp))
      in
      let sp = timed 2 (fun () -> Es_lp.Sparse.of_rows ~obj rows) in
      ignore (timed 3 (fun () -> Es_lp.Revised.solve sp)))
    vdd;
  let count = List.length vdd in
  List.mapi
    (fun k name -> (name, 1e3 *. steps.(k), count))
    [ "lp.build_ms"; "lp.densify_ms"; "lp.csc_ms"; "lp.revised_ms" ]

let solve_large sizes ~seed =
  let namings =
    Inputs.large ~seed ~blocks:sizes.large_namings ~continuous_tiles:sizes.large_continuous_tiles
      ~discrete_tiles:sizes.large_discrete_tiles ~vdd_tiles:sizes.large_vdd_tiles
      ~vdd_lu_tiles:sizes.large_vdd_lu_tiles ~stencil:sizes.large_stencil
  in
  let inputs = List.concat (Array.to_list namings) in
  (* Every naming holds the same instances, renamed, which leaves each
     optimum unchanged: an LP optimum is certified once, on the first
     naming, and checked against in every naming. *)
  let optima =
    Array.of_list
      (List.map
         (fun (l : Inputs.large) ->
           lazy
             (match l.request.model with
             | Speed.Vdd_hopping levels ->
               Checks.vdd_optimum ~deadline:l.request.deadline ~levels l.request.mapping
             | Speed.Continuous _ | Speed.Discrete _ | Speed.Incremental _ ->
               Error "not an LP instance"))
         namings.(0))
  in
  let optimum i = Lazy.force optima.(i mod Array.length optima) in
  {
    requests = List.length inputs;
    round =
      (fun ~between _ ->
        let latencies, answers = operations ~between inputs solve in
        {
          latencies;
          outputs = List.map2 render_answer inputs answers;
          check = (fun () -> Checks.large ~optimum inputs answers);
        });
    trace =
      (fun () ->
        let split = lp_split inputs in
        fun _ spans ->
        let latencies, answers = operations ~spans inputs solve in
        let by_class = Hashtbl.create 4 in
        List.iteri
          (fun i (l : Inputs.large) ->
            let cls = Inputs.engine_class l.request.model l.request.rel in
            let t, c = Option.value ~default:(0., 0) (Hashtbl.find_opt by_class cls) in
            Hashtbl.replace by_class cls (t +. latencies.(i), c + 1))
          inputs;
        {
          t_outputs = List.map2 render_answer inputs answers;
          solve_phase_s = Array.fold_left ( +. ) 0. latencies;
          layers = split @ solve_ms_per_req by_class;
        });
  }

let session sizes (w : Report.workload) ~seed =
  match w with
  | Serve_cold -> serve_cold sizes ~seed
  | Serve_hot -> serve_hot sizes ~seed
  | Pareto_sweep -> pareto_sweep sizes ~seed
  | Solve_large -> solve_large sizes ~seed

(* ---- measuring ---------------------------------------------------- *)

let heap_peak_mb () =
  float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8)) /. 1048576.

(* Set up from a compacted heap, so that the garbage an earlier round
   left is not collected on the set-up's clock; returns the set-up's
   wall and the session. *)
let set_up sizes w ~seed =
  Gc.compact ();
  Bench_common.wall (fun () -> session sizes w ~seed)

(* Likewise, the round starts from a compacted heap. *)
let timed_round ?(between = ignore) (s : session) =
  Gc.compact ();
  Bench_common.with_jobs jobs (s.round ~between)

(* Operations whose output differs between two rounds. *)
let mismatches (a : round) (b : round) =
  let rec count xs ys n =
    match (xs, ys) with
    | x :: xs, y :: ys -> count xs ys (if String.equal x y then n else n + 1)
    | [], rest | rest, [] -> n + List.length rest
  in
  count a.outputs b.outputs 0

let cap_failures failures = List.filteri (fun i _ -> i < 10) failures

(* Catalogue order, each metric with its unit; one not measured
   reads 0 from 0 samples. *)
let fill catalogue measured =
  List.map
    (fun (name, unit) ->
      match List.find_opt (fun (n, _, _) -> String.equal n name) measured with
      | Some (_, value, samples) -> { Report.name; unit; value; samples }
      | None -> { Report.name; unit; value = 0.; samples = 0 })
    catalogue

let min_rounds = 3

(* A sample of set-up time covers at least this long: shorter set-ups
   are repeated, at most [max_setup_reps] times (each compacts the
   heap first), and their mean taken. *)
let setup_sample_s = 0.1
let max_setup_reps = 10

(* One sample of set-up time: the mean wall of [reps] set-ups, with a
   kernel run just before them, whose mark it returns, and one just
   after.  Returns the last set-up's session. *)
let setup_sample calib sizes w ~seed ~reps =
  Calib.sample calib;
  let mark = Calib.count calib in
  let rec go k total =
    let wall, s = set_up sizes w ~seed in
    if k <= 1 then (total +. wall, s) else go (k - 1) (total +. wall)
  in
  let total, s = go reps 0. in
  Calib.sample calib;
  (total /. float_of_int reps, mark, s)

(* Operations shorter than this share calibration samples: the kernel
   runs before an operation only when this long has passed since it
   last ran, which keeps it to about a tenth of a serve round. *)
let calibration_interval = 0.025

(* One round, with each operation's calibration mark. *)
let marked_round calib (s : session) =
  let marks = ref [] in
  let between () =
    if Calib.due calib ~interval:calibration_interval then Calib.sample calib;
    marks := Calib.count calib :: !marks
  in
  let r = timed_round ~between s in
  Calib.sample calib;
  (r, Array.of_list (List.rev !marks))

(* Wall times at the reference speed, once the run has taken all its
   calibration samples. *)
let at_reference calib (walls, marks) =
  Array.map2 (fun wall kernel -> Calib.at_reference ~kernel wall) walls (Calib.around calib marks)

(* Per operation, the median over rounds. *)
let per_operation_medians rounds =
  match rounds with
  | [] -> [||]
  | first :: _ ->
    Array.init (Array.length first) (fun i ->
        Stats.median (Array.of_list (List.map (fun costs -> costs.(i)) rounds)))

(* Every round sets up afresh from the seed, which gives the same inputs
   each time, and serves all of them once.  Every time is calibrated
   (see Calib): an operation's cost is the median over rounds of its
   time at the reference speed, and set-up time the median over
   rounds.  Rounds run while the next one is expected to end within
   [seconds], and at least [min_rounds] run. *)
let run ?(sizes = default_sizes) w ~seed ~seconds =
  let start = Obs.now () in
  let calib = Calib.create () in
  let setups = ref [] and reps = ref 1 in
  let costs = ref [] in
  let first = ref None and heap = ref 0. and failures = ref [] in
  let rounds = ref [] in
  let n_rounds () = List.length !rounds in
  let next_ends () =
    let elapsed = Obs.now () -. start in
    elapsed +. (elapsed /. float_of_int (max 1 (n_rounds ())))
  in
  while n_rounds () < min_rounds || next_ends () <= seconds do
    let setup, mark, s = setup_sample calib sizes w ~seed ~reps:!reps in
    (* the first sample is one set-up, which sizes the later ones *)
    if !setups = [] then
      reps := max 1 (min max_setup_reps (int_of_float (Float.ceil (setup_sample_s /. setup))));
    setups := (setup, mark) :: !setups;
    let r, marks = marked_round calib s in
    costs := (r.latencies, marks) :: !costs;
    match !first with
    | None ->
      (* Later rounds repeat the first one's work, and how many there
         are depends on the machine's speed, so the heap peak is read
         after the first.  Off the clock, the first round is checked in
         full; a later round fails where the first did or where it
         answered differently. *)
      first := Some r;
      heap := heap_peak_mb ();
      failures := r.check ();
      rounds := [ (s.requests, 0) ]
    | Some f -> rounds := (s.requests, mismatches f r) :: !rounds
  done;
  let failures = !failures in
  let attempted = List.fold_left (fun n (ops, _) -> n + ops) 0 !rounds in
  let failed =
    List.fold_left
      (fun n (ops, mismatched) -> n + min ops (List.length failures + mismatched))
      0 !rounds
  in
  let n_rounds = n_rounds () in
  let requests = match !rounds with (ops, _) :: _ -> ops | [] -> 0 in
  let costs = per_operation_medians (List.map (at_reference calib) !costs) in
  let operations = Array.length costs in
  let setups =
    let walls, marks = List.split !setups in
    at_reference calib (Array.of_list walls, Array.of_list marks)
  in
  let metrics =
    fill Report.end_to_end
      [
        ("setup_s", Stats.median setups, 1 + ((n_rounds - 1) * !reps));
        ("throughput_rps", float_of_int requests /. Array.fold_left ( +. ) 0. costs, n_rounds);
        ("lat_p50_ms", 1e3 *. Stats.quantile costs 0.5, operations);
        ("lat_p90_ms", 1e3 *. Stats.quantile costs 0.9, operations);
        ("heap_peak_mb", !heap, 1);
      ]
  in
  {
    Report.workload = w;
    seed;
    mode = "run";
    seconds;
    jobs;
    rounds = n_rounds;
    kernel_ms = Calib.median_ms calib;
    attempted;
    failed;
    failures = cap_failures failures;
    metrics;
  }

let counter name = float_of_int (Obs.value (Obs.counter name))
let timer_ms name = 1e3 *. Obs.timer_total (Obs.timer name)

let trace ?(sizes = default_sizes) w ~seed ~spans_out =
  let gc () =
    let g = Gc.quick_stat () in
    (g.minor_words +. g.major_words -. g.promoted_words, g.minor_collections, g.major_collections)
  in
  (* The first untraced round warms up and is the one checked.  The
     second is the baseline of the traced round: both start from a
     compacted heap.  Its pool is joined before the second reading, so
     the workers' allocation is in it. *)
  let plain = timed_round (snd (set_up sizes w ~seed)) in
  let _, s = set_up sizes w ~seed in
  Gc.compact ();
  let words0, minor0, major0 = gc () in
  let wall_plain, _ =
    Bench_common.with_jobs jobs (fun pool ->
        Bench_common.wall (fun () -> s.round ~between:ignore pool))
  in
  let words1, minor1, major1 = gc () in
  let go = s.trace () in
  let spans = Spans.create () in
  Gc.compact ();
  Obs.reset ();
  Obs.enable ();
  let wall_traced, traced =
    Fun.protect ~finally:(fun () -> Obs.disable ()) (fun () ->
        Bench_common.with_jobs jobs (fun pool ->
            Bench_common.wall (fun () -> go pool spans)))
  in
  let ops = s.requests in
  let from_counters =
    let c name = counter name in
    let warm = c "lp_warm_starts" and fallbacks = c "lp_warm_cold_fallbacks" in
    [
      ("cache.rescale_reject", c "serve.cache.rescale_reject");
      ("cache.evictions", c "serve.cache.evict");
      ("par.chunks", c "par.chunk.tasks");
      ("par.parks", c "par.pool.parks");
      ("barrier.newton_iters", c "barrier_newton_iters");
      ("barrier.centering_steps", c "barrier_centering_steps");
      ("barrier.minimize_ms", timer_ms "barrier_minimize");
      ("lp.solves", c "lp_solves");
      ("lp.pivots", c "simplex_pivots");
      ("lp.phase1_pivots", c "simplex_phase1_pivots");
      ("lp.phase2_pivots", c "simplex_phase2_pivots");
      ("lp.dual_pivots", c "simplex_dual_pivots");
      ("lp.degenerate_pivots", c "simplex_degenerate_pivots");
      ("lp.refactorizations", c "simplex_refactorizations");
      ("lp.warm_starts", warm);
      ("lp.warm_fallbacks", fallbacks);
      ("lp.warm_useful_ratio", if warm +. fallbacks = 0. then 0. else warm /. (warm +. fallbacks));
      ("lp.solve_ms", timer_ms "lp_solve");
      ("lp.phase1_ms", timer_ms "simplex_phase1");
      ("lp.phase2_ms", timer_ms "simplex_phase2");
    ]
  in
  let from_spans =
    let selfs = Spans.self_times spans in
    List.map
      (fun (span, metric) ->
        match List.find_opt (fun (n, _, _) -> String.equal n span) selfs with
        | Some (_, total, count) -> (metric, 1e6 *. per count total, count)
        | None -> (metric, 0., 0))
      [
        ("parse", "parse.us_per_req");
        ("resolve", "resolve.us_per_req");
        ("canonicalize", "canonicalize.us_per_req");
        ("cache_insert", "cache_insert.us_per_insert");
        ("serialize", "serialize.us_per_req");
        (Spans.root, "request.self_us_per_req");
      ]
  in
  let measured =
    from_spans
    @ List.map (fun (name, v) -> (name, v, ops)) from_counters
    @ traced.layers
    @ [
        ("solve.share", traced.solve_phase_s /. wall_traced, ops);
        ("gc.alloc_mb_per_op", per ops ((words1 -. words0) *. float_of_int (Sys.word_size / 8) /. 1048576.), ops);
        ("gc.minor_collections_per_op", per ops (float_of_int (minor1 - minor0)), ops);
        ("gc.major_collections", float_of_int (major1 - major0), 1);
        ("trace.overhead", (wall_traced /. wall_plain) -. 1., 1);
      ]
  in
  let metrics = fill Report.per_layer measured in
  let failures =
    plain.check ()
    @
    if List.equal String.equal traced.t_outputs plain.outputs then []
    else [ "the traced round answered differently from the untraced one" ]
  in
  Spans.write_ndjson spans spans_out;
  {
    Report.workload = w;
    seed;
    mode = "trace";
    seconds = 0.;
    jobs;
    rounds = 1;
    kernel_ms = 0.;
    attempted = ops;
    failed = min ops (List.length failures);
    failures = cap_failures failures;
    metrics;
  }
