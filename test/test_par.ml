(* lib/par: determinism, exception propagation, pool lifecycle. *)

module Pool = Es_par.Pool
module Par = Es_par.Par
module Rng = Es_util.Rng

let with_pool4 f = Pool.with_pool ~domains:4 f

(* A mildly uneven workload so tasks finish out of submission order. *)
let busy n =
  let acc = ref 0 in
  for i = 1 to 1 + ((n * 7919) mod 997) do
    acc := (!acc + (i * n)) mod 1_000_003
  done;
  !acc

let test_map_ordering () =
  let xs = List.init 200 Fun.id in
  let expected = List.map busy xs in
  with_pool4 (fun pool ->
      Alcotest.(check (list int))
        "parallel = sequential" expected
        (Par.parallel_map ~pool busy xs);
      Alcotest.(check (list int))
        "chunk:1" expected
        (Par.parallel_map ~pool ~chunk:1 busy xs);
      Alcotest.(check (list int))
        "chunk:17" expected
        (Par.parallel_map ~pool ~chunk:17 busy xs));
  Alcotest.(check (list int))
    "no pool" expected
    (Par.parallel_map busy xs)

exception Boom of int

let test_exception_index () =
  let xs = List.init 50 Fun.id in
  let f x = if x mod 20 = 3 then raise (Boom x) else x in
  let check_raises name run =
    match run () with
    | (_ : int list) -> Alcotest.failf "%s: expected Task_error" name
    | exception Par.Task_error { index; exn; _ } ->
      (* tasks 3, 23 and 43 all fail; the join must pick the lowest
         index regardless of which worker finished first *)
      Alcotest.(check int) (name ^ ": lowest failing index") 3 index;
      (match exn with
      | Boom v -> Alcotest.(check int) (name ^ ": original exn") 3 v
      | _ -> Alcotest.failf "%s: wrong exception payload" name)
  in
  check_raises "sequential" (fun () -> Par.parallel_map f xs);
  with_pool4 (fun pool ->
      check_raises "parallel" (fun () -> Par.parallel_map ~pool ~chunk:1 f xs);
      (* same contract when chunks land on different shards and get
         stolen: auto-tuned and odd explicit chunkings agree *)
      check_raises "parallel auto-chunk" (fun () -> Par.parallel_map ~pool f xs);
      check_raises "parallel chunk:7" (fun () ->
          Par.parallel_map ~pool ~chunk:7 f xs))

let test_default_chunk_pins () =
  (* ceiling division, floored at 2 items per chunk: small n must not
     degenerate to one task per item (9/(4*4) used to floor to 0) *)
  List.iter
    (fun ((pool_size, n), expected) ->
      Alcotest.(check int)
        (Printf.sprintf "pool=%d n=%d" pool_size n)
        expected
        (Par.default_chunk ~pool_size ~n))
    [
      ((4, 9), 2);
      ((4, 16), 2);
      ((4, 32), 2);
      ((4, 200), 13);
      ((4, 1000), 63);
      ((1, 100), 25);
      ((4, 1), 2);
      ((4, 0), 2);
      ((8, 64), 2);
    ];
  Alcotest.check_raises "pool_size 0"
    (Invalid_argument "Par.default_chunk: pool_size must be >= 1") (fun () ->
      ignore (Par.default_chunk ~pool_size:0 ~n:10))

let test_empty_input () =
  with_pool4 (fun pool ->
      Alcotest.(check (list int))
        "parallel_map []" []
        (Par.parallel_map ~pool busy []);
      Alcotest.(check (list int))
        "map_seeded []" []
        (Par.map_seeded ~pool ~rng:(Rng.create ~seed:5) (fun _ x -> busy x) []);
      Alcotest.(check int)
        "try_map []" 0
        (List.length (Par.try_map ~pool ~timeout:0.01 busy []));
      Par.parallel_iteri ~pool (fun _ _ -> Alcotest.fail "no items to visit") [];
      Alcotest.(check int)
        "map_reduce [] keeps init" 42
        (Par.map_reduce ~pool ~map:busy ~reduce:( + ) 42 []))

let test_chunk_exceeds_n () =
  let xs = List.init 10 Fun.id in
  let expected = List.map busy xs in
  with_pool4 (fun pool ->
      Alcotest.(check (list int))
        "chunk:50 on 10 items" expected
        (Par.parallel_map ~pool ~chunk:50 busy xs))

let test_pool_reuse () =
  with_pool4 (fun pool ->
      for round = 1 to 5 do
        let xs = List.init 40 (fun i -> i + (round * 100)) in
        Alcotest.(check (list int))
          (Printf.sprintf "round %d" round)
          (List.map busy xs)
          (Par.parallel_map ~pool busy xs)
      done;
      Alcotest.(check int) "pool size" 4 (Pool.size pool))

let test_shutdown_rejects_submit () =
  let pool = Pool.create ~domains:2 () in
  Pool.shutdown pool;
  Pool.shutdown pool (* idempotent *);
  Alcotest.check_raises "submit after shutdown"
    (Invalid_argument "Pool.submit: pool is shut down") (fun () ->
      Pool.submit pool (fun () -> ()))

let test_nested_map_runs_inline () =
  with_pool4 (fun pool ->
      let outer = List.init 8 Fun.id in
      let result =
        (* chunk:1 pins every outer item to a pool task (the default
           probe would run the first items inline, outside a worker).
           Workers only record [in_worker]: Alcotest's printing is not
           domain-safe, so the checks run on the joining domain. *)
        Par.parallel_map ~pool ~chunk:1
          (fun i ->
            (* inside a worker: must fall back to inline execution
               rather than deadlock on the queue we are draining *)
            let inner = List.init 5 (fun j -> (i * 10) + j) in
            (Pool.in_worker (), List.fold_left ( + ) 0 (Par.parallel_map ~pool busy inner)))
          outer
      in
      Alcotest.(check (list bool)) "in worker" (List.map (fun _ -> true) outer)
        (List.map fst result);
      let expected =
        List.map
          (fun i ->
            let inner = List.init 5 (fun j -> (i * 10) + j) in
            List.fold_left ( + ) 0 (List.map busy inner))
          outer
      in
      Alcotest.(check (list int)) "nested result" expected (List.map snd result))

let test_map_reduce () =
  let xs = List.init 300 (fun i -> i + 1) in
  (* deliberately non-associative, non-commutative reduce: the
     contract is exact equality with the sequential left fold *)
  let reduce acc v = (acc * 31) + v in
  let expected = List.fold_left reduce 7 (List.map busy xs) in
  with_pool4 (fun pool ->
      Alcotest.(check int)
        "fold order preserved" expected
        (Par.map_reduce ~pool ~map:busy ~reduce 7 xs))

let test_try_map_outcomes () =
  let f x = if x = 2 then failwith "bad task" else x * x in
  let classify = function
    | Par.Done v -> Printf.sprintf "done:%d" v
    | Par.Failed { exn; _ } -> "failed:" ^ Printexc.to_string exn
    | Par.Timed_out -> "timeout"
  in
  let expected =
    [ "done:0"; "done:1"; "failed:Failure(\"bad task\")"; "done:9" ]
  in
  with_pool4 (fun pool ->
      Alcotest.(check (list string))
        "per-task outcomes" expected
        (List.map classify (Par.try_map ~pool f [ 0; 1; 2; 3 ])))

let test_try_map_timeout () =
  with_pool4 (fun pool ->
      let f x =
        if x = 1 then Unix.sleepf 0.25 (* straggler *) else ();
        x
      in
      let outs = Par.try_map ~pool ~timeout:0.05 f [ 0; 1; 2; 3 ] in
      let tags =
        List.map
          (function
            | Par.Done v -> string_of_int v
            | Par.Timed_out -> "T"
            | Par.Failed _ -> "F")
          outs
      in
      Alcotest.(check (list string)) "straggler marked" [ "0"; "T"; "2"; "3" ] tags)

let test_pool_reuse_after_timeout () =
  with_pool4 (fun pool ->
      let f x =
        if x = 0 then Unix.sleepf 0.2;
        x
      in
      (match Par.try_map ~pool ~timeout:0.05 f [ 0; 1; 2; 3 ] with
      | Par.Timed_out :: _ -> ()
      | _ -> Alcotest.fail "straggler not timed out");
      (* the straggler's worker is still busy draining its late task;
         the pool must keep serving new sweeps correctly meanwhile *)
      let xs = List.init 60 Fun.id in
      Alcotest.(check (list int))
        "map after timeout" (List.map busy xs)
        (Par.parallel_map ~pool busy xs);
      Alcotest.(check (list int))
        "second round" (List.map busy xs)
        (Par.parallel_map ~pool ~chunk:3 busy xs))

let test_parallel_iteri_failure () =
  let xs = List.init 100 Fun.id in
  let f i _ = if i mod 25 = 7 then raise (Boom i) in
  let check name run =
    match run () with
    | () -> Alcotest.failf "%s: expected Task_error" name
    | exception Par.Task_error { index; _ } ->
      Alcotest.(check int) (name ^ ": lowest failing index") 7 index
  in
  check "sequential" (fun () -> Par.parallel_iteri f xs);
  with_pool4 (fun pool ->
      check "parallel" (fun () -> Par.parallel_iteri ~pool f xs);
      check "parallel chunk:4" (fun () -> Par.parallel_iteri ~pool ~chunk:4 f xs))

let test_submit_batch_drains () =
  let hits = Array.make 32 0 in
  let pool = Pool.create ~domains:3 () in
  Pool.submit_batch pool (Array.init 32 (fun i () -> hits.(i) <- hits.(i) + 1));
  Pool.shutdown pool;
  Alcotest.(check (list int))
    "each batched task ran exactly once"
    (List.init 32 (fun _ -> 1))
    (Array.to_list hits)

let test_map_seeded_across_jobs () =
  (* the determinism contract across job counts, at the unit level:
     jobs ∈ {1, 2, 4} must produce identical draws *)
  let xs = List.init 40 Fun.id in
  let draw rng x = float_of_int x +. Rng.float rng 1. in
  let run jobs =
    let rng = Rng.create ~seed:123 in
    if jobs = 1 then Par.map_seeded ~rng draw xs
    else Pool.with_pool ~domains:jobs (fun pool -> Par.map_seeded ~pool ~rng draw xs)
  in
  let reference = run 1 in
  List.iter
    (fun jobs ->
      Alcotest.(check (list (float 0.)))
        (Printf.sprintf "jobs=%d" jobs)
        reference (run jobs))
    [ 2; 4 ]

let test_map_seeded_deterministic () =
  let xs = List.init 30 Fun.id in
  let draw rng x = float_of_int x +. Rng.float rng 1. in
  let reference =
    let rng = Rng.create ~seed:99 in
    let seeded = List.map (fun x -> (Rng.split rng, x)) xs in
    List.map (fun (r, x) -> draw r x) seeded
  in
  with_pool4 (fun pool ->
      let rng = Rng.create ~seed:99 in
      Alcotest.(check (list (float 0.)))
        "streams independent of scheduling" reference
        (Par.map_seeded ~pool ~rng draw xs));
  let rng = Rng.create ~seed:99 in
  Alcotest.(check (list (float 0.)))
    "sequential path identical" reference
    (Par.map_seeded ~rng draw xs)

let test_parallel_iteri () =
  let xs = List.init 100 (fun i -> i * 3) in
  with_pool4 (fun pool ->
      let slots = Array.make 100 (-1) in
      Par.parallel_iteri ~pool (fun i x -> slots.(i) <- busy x) xs;
      Alcotest.(check (list int))
        "disjoint slot writes" (List.map busy xs)
        (Array.to_list slots))

(* QCheck law: parallel_map is observationally List.map, for random
   inputs, random chunking and a pure function. *)
let law_parallel_map_is_map =
  QCheck.Test.make ~count:60 ~name:"parallel_map = List.map"
    QCheck.(pair (small_list int) (int_range 1 9))
    (fun (xs, chunk) ->
      let f x = (x * x) - (3 * x) + 1 in
      Pool.with_pool ~domains:3 (fun pool ->
          Par.parallel_map ~pool ~chunk f xs = List.map f xs))

let suite =
  ( "par",
    [
      Alcotest.test_case "map ordering" `Quick test_map_ordering;
      Alcotest.test_case "exception index" `Quick test_exception_index;
      Alcotest.test_case "default_chunk pins" `Quick test_default_chunk_pins;
      Alcotest.test_case "empty input" `Quick test_empty_input;
      Alcotest.test_case "chunk exceeds n" `Quick test_chunk_exceeds_n;
      Alcotest.test_case "pool reuse" `Quick test_pool_reuse;
      Alcotest.test_case "pool reuse after timeout" `Slow
        test_pool_reuse_after_timeout;
      Alcotest.test_case "parallel_iteri failure index" `Quick
        test_parallel_iteri_failure;
      Alcotest.test_case "submit_batch drains" `Quick test_submit_batch_drains;
      Alcotest.test_case "map_seeded across jobs" `Quick
        test_map_seeded_across_jobs;
      Alcotest.test_case "shutdown rejects submit" `Quick
        test_shutdown_rejects_submit;
      Alcotest.test_case "nested map runs inline" `Quick
        test_nested_map_runs_inline;
      Alcotest.test_case "map_reduce fold order" `Quick test_map_reduce;
      Alcotest.test_case "try_map outcomes" `Quick test_try_map_outcomes;
      Alcotest.test_case "try_map timeout" `Slow test_try_map_timeout;
      Alcotest.test_case "map_seeded deterministic" `Quick
        test_map_seeded_deterministic;
      Alcotest.test_case "parallel_iteri" `Quick test_parallel_iteri;
      QCheck_alcotest.to_alcotest law_parallel_map_is_map;
    ] )
