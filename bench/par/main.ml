(* lib/par scaling benchmark: the deterministic parallel workloads
   (Pareto sweeps, Monte-Carlo fault injection) at jobs ∈ {1, 2, 4},
   plus an estimate of the Obs disabled-path overhead on a probed
   solver workload.  Writes a machine-readable baseline:

     dune exec bench/par/main.exe                    # BENCH_PR6.json
     dune exec bench/par/main.exe -- --out o.json    # change the path
     dune exec bench/par/main.exe -- --gate          # assert speedups

   Honesty about cores (schema esched-bench/2): a multi-job point is
   only a *timing* when the machine actually has that many cores.  On
   an undersized host (e.g. the 1-core reference container) the point
   is still executed once — the digest equality check across job
   counts is the determinism contract and always applies — but it is
   recorded with ["valid": false] and a ["skipped_reason"] instead of
   a speedup, so a recorded 0.28x "slowdown" can never again be read
   as an engine regression when it was only oversubscription.

   [--gate] turns the baseline into a regression gate: on a >= 4-core
   machine the Pareto-front and Monte-Carlo workloads must reach a
   speedup >= 1.5x at jobs=4, or the run exits 1 (after writing the
   JSON, so CI still uploads the evidence).  On fewer cores the gate
   records itself as not applied and passes.

   With or without [--gate], the run exits 1 when a digest differs
   across job counts, or when the Obs disabled-path overhead reaches
   2% of the probed workload's wall time. *)

module Obs = Es_obs.Obs
module Pool = Es_par.Pool
module Rng = Es_util.Rng

let jobs_grid = [ 1; 2; 4 ]
let reps = 3
let gate_threshold = 1.5
let gate_jobs = 4
let gate_min_cores = 4
let obs_overhead_limit = 0.02

(* The workloads the CI gate asserts scaling on (ISSUE 6: at least the
   Pareto front and Monte-Carlo). *)
let gated_workloads =
  [ "pareto-bicrit-front-24-deadlines"; "sim-monte-carlo-20k-trials" ]

(* ------------------------------------------------------------------ *)
(* fixed instances                                                     *)
(* ------------------------------------------------------------------ *)

let fmin = 0.2
let fmax = 1.0
let rel = Rel.make ~lambda0:1e-5 ~sensitivity:3. ~fmin ~fmax ~frel:0.8 ()

let mapping, base_deadline =
  let rng = Rng.create ~seed:11 in
  let dag =
    Generators.random_layered rng ~layers:5 ~width:4 ~density:0.5 ~wlo:1. ~whi:3.
  in
  let m = List_sched.schedule dag ~p:3 ~priority:List_sched.Bottom_level in
  (m, List_sched.makespan_at_speed m ~f:fmax)

let deadlines =
  List.init 24 (fun i -> base_deadline *. (1.05 +. (0.08 *. float_of_int i)))

let sim_schedule =
  let rng = Rng.create ~seed:12 in
  let dag = Generators.chain rng ~n:12 ~wlo:0.5 ~whi:3. in
  let m = Mapping.single_processor dag in
  Schedule.of_speeds m ~speeds:(Array.make (Dag.n dag) 0.6)

(* Each workload returns a digest of its result so the harness can
   assert jobs-independence, not just time it. *)
let digest_front points =
  String.concat ";"
    (List.map
       (fun (p : Pareto.point) ->
         Printf.sprintf "%.9f:%.9f:%d" p.Pareto.deadline p.Pareto.energy
           p.Pareto.n_reexecuted)
       points)

let workloads : (string * (Pool.t option -> string)) list =
  [
    ( "pareto-bicrit-front-24-deadlines",
      fun pool ->
        digest_front (Pareto.bicrit_front ?pool ~fmin ~fmax ~deadlines mapping) );
    ( "pareto-tricrit-front-24-deadlines",
      fun pool -> digest_front (Pareto.tricrit_front ?pool ~rel ~deadlines mapping) );
    ( "sim-monte-carlo-20k-trials",
      fun pool ->
        let r =
          Sim.monte_carlo_par ?pool (Rng.create ~seed:13) ~rel ~trials:20_000
            sim_schedule
        in
        Printf.sprintf "%.9f:%.9f:%.9f" r.Sim.success_rate r.Sim.mean_faults
          r.Sim.mean_realised_energy );
  ]

(* ------------------------------------------------------------------ *)
(* timing                                                              *)
(* ------------------------------------------------------------------ *)

let wall = Bench_common.wall
let best_wall f = Bench_common.best_wall ~reps f
let with_jobs = Bench_common.with_jobs

type point = {
  p_jobs : int;
  p_wall : float;
  p_valid : bool;  (* false: timing taken on fewer cores than jobs *)
  p_skipped_reason : string option;
}

let bench_workload ~cores (name, run) =
  let reference = run None in
  let check_digest jobs digest =
    if digest <> reference then begin
      Printf.eprintf "bench/par: %s differs at --jobs %d\n" name jobs;
      exit 1
    end
  in
  let points =
    List.map
      (fun jobs ->
        if jobs <= cores then begin
          let t, digest =
            with_jobs jobs (fun pool -> best_wall (fun () -> run pool))
          in
          check_digest jobs digest;
          { p_jobs = jobs; p_wall = t; p_valid = true; p_skipped_reason = None }
        end
        else begin
          (* determinism is still asserted (one run), the timing is
             not a scaling data point on this machine *)
          let t, digest = with_jobs jobs (fun pool -> wall (fun () -> run pool)) in
          check_digest jobs digest;
          {
            p_jobs = jobs;
            p_wall = t;
            p_valid = false;
            p_skipped_reason =
              Some (Printf.sprintf "cores=%d < jobs=%d" cores jobs);
          }
        end)
      jobs_grid
  in
  let t1 =
    match List.find_opt (fun p -> p.p_jobs = 1) points with
    | Some p -> p.p_wall
    | None -> nan
  in
  (name, points, t1)

let speedup ~t1 p = t1 /. p.p_wall

(* ------------------------------------------------------------------ *)
(* Obs disabled-path overhead                                          *)
(* ------------------------------------------------------------------ *)

(* The telemetry contract (DESIGN.md §9, lib/obs) is that a disabled
   probe costs one load-test-branch.  Estimate that cost directly
   (tight incr loop against an empty-loop baseline), count how many
   probes one solver workload actually hits (run it once enabled),
   and express the product as a fraction of the disabled wall time. *)
let obs_overhead () =
  let c = Obs.counter "bench.par.disabled" in
  Obs.disable ();
  let iters = 20_000_000 in
  let t_loop, () = wall (fun () -> for _ = 1 to iters do Sys.opaque_identity () done) in
  let t_incr, () =
    wall (fun () -> for _ = 1 to iters do Obs.incr (Sys.opaque_identity c) done)
  in
  let incr_ns = Float.max 0. (t_incr -. t_loop) /. float_of_int iters *. 1e9 in
  let run =
    match List.nth_opt workloads 1 with
    | Some (_, run) -> run
    | None -> fun _ -> ""
  in
  Obs.enable ();
  let snap =
    Fun.protect
      ~finally:(fun () ->
        Obs.disable ();
        Obs.reset ())
      (fun () ->
        Obs.reset ();
        ignore (run None);
        Obs.snapshot ())
  in
  let probes =
    List.fold_left (fun acc (_, v) -> acc + v) 0 snap.Obs.counters
    + List.fold_left (fun acc (_, t) -> acc + t.Obs.count) 0 snap.Obs.timers
  in
  let t_dis, _ = wall (fun () -> run None) in
  let fraction = float_of_int probes *. incr_ns *. 1e-9 /. t_dis in
  (incr_ns, probes, t_dis, fraction)

(* ------------------------------------------------------------------ *)
(* gate                                                                *)
(* ------------------------------------------------------------------ *)

(* Returns the failures: (workload, measured speedup at [gate_jobs]). *)
let gate_failures results =
  List.filter_map
    (fun (name, points, t1) ->
      if not (List.mem name gated_workloads) then None
      else
        match List.find_opt (fun p -> p.p_jobs = gate_jobs && p.p_valid) points with
        | None -> Some (name, nan) (* no valid jobs=4 point: fail loudly *)
        | Some p ->
          let s = speedup ~t1 p in
          if s >= gate_threshold then None else Some (name, s))
    results

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

let () =
  let argv = Array.to_list Sys.argv in
  let gate = List.mem "--gate" argv in
  let path = Bench_common.out_path ~default:"BENCH_PR6.json" argv in
  (* sizing query only — no domain is spawned here; the pool owns the workers *)
  let cores = (Domain.recommended_domain_count () [@lint.allow "P004"]) in
  let results = List.map (bench_workload ~cores) workloads in
  let incr_ns, probes, t_dis, fraction = obs_overhead () in
  let gate_applied = gate && cores >= gate_min_cores in
  let failures = if gate_applied then gate_failures results else [] in
  let open Es_obs.Obs_json in
  let point_json t1 p =
    Obj
      ([
         ("jobs", Num (float_of_int p.p_jobs));
         ("wall_s", Num p.p_wall);
         ("valid", Bool p.p_valid);
       ]
      @ (if p.p_valid then [ ("speedup_vs_jobs1", Num (speedup ~t1 p)) ] else [])
      @
      match p.p_skipped_reason with
      | Some reason -> [ ("skipped_reason", Str reason) ]
      | None -> [])
  in
  let workload_json (name, points, t1) =
    Obj
      [
        ("name", Str name);
        ("deterministic", Bool true);
        ("gated", Bool (List.mem name gated_workloads));
        ("jobs", List (List.map (point_json t1) points));
      ]
  in
  let json =
    Obj
      [
        ("schema", Str "esched-bench/2");
        ("baseline", Str "PR6");
        ("cores", Num (float_of_int cores));
        ("reps_per_point", Num (float_of_int reps));
        ( "gate",
          Obj
            [
              ("requested", Bool gate);
              ("applied", Bool gate_applied);
              ("threshold_speedup", Num gate_threshold);
              ("at_jobs", Num (float_of_int gate_jobs));
              ("min_cores", Num (float_of_int gate_min_cores));
              ("passed", Bool (failures = []));
            ] );
        ("workloads", List (List.map workload_json results));
        ( "obs_disabled_path",
          Obj
            [
              ("incr_ns", Num incr_ns);
              ("probe_calls", Num (float_of_int probes));
              ("workload_wall_s", Num t_dis);
              ("overhead_fraction", Num fraction);
            ] );
      ]
  in
  Bench_common.write_json ~path json;
  Printf.printf "bench/par: wrote %s (%d workloads, %d cores)\n" path
    (List.length results) cores;
  List.iter
    (fun (name, points, t1) ->
      List.iter
        (fun p ->
          match p.p_skipped_reason with
          | Some reason ->
            Printf.printf "  %-36s jobs=%d  %8.1f ms  (skipped: %s)\n" name
              p.p_jobs (p.p_wall *. 1e3) reason
          | None ->
            Printf.printf "  %-36s jobs=%d  %8.1f ms  (x%.2f)\n" name p.p_jobs
              (p.p_wall *. 1e3) (speedup ~t1 p))
        points)
    results;
  Printf.printf "  obs disabled-path: %.2f ns/probe, %d probes, %.2f%% of wall\n"
    incr_ns probes (100. *. fraction);
  let overhead_ok = fraction < obs_overhead_limit in
  if not overhead_ok then
    Printf.eprintf "bench/par: Obs disabled-path overhead %.2f%% >= %.0f%%\n"
      (100. *. fraction) (100. *. obs_overhead_limit);
  if gate then begin
    if not gate_applied then
      Printf.printf
        "  gate: not applied (cores=%d < %d); determinism checked, scaling \
         unasserted\n"
        cores gate_min_cores
    else if failures = [] then
      Printf.printf "  gate: passed (speedup >= %.1fx at jobs=%d on %d cores)\n"
        gate_threshold gate_jobs cores
    else begin
      List.iter
        (fun (name, s) ->
          Printf.eprintf
            "bench/par: GATE FAILURE %s: speedup %.2fx at jobs=%d < required \
             %.1fx (cores=%d)\n"
            name s gate_jobs gate_threshold cores)
        failures;
      exit 1
    end
  end;
  if not overhead_ok then exit 1
