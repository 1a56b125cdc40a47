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
        (Par.parallel_map ~pool busy xs));
  Alcotest.(check (list int))
    "no pool" expected
    (Par.parallel_map busy xs)

exception Boom of int

let test_exception_index () =
  let xs = List.init 50 Fun.id in
  let ran = Atomic.make 0 in
  let f x =
    Atomic.incr ran;
    if x mod 20 = 3 then raise (Boom x) else x
  in
  let check_raises name run =
    Atomic.set ran 0;
    (match run () with
    | (_ : int list) -> Alcotest.failf "%s: expected Task_error" name
    | exception Par.Task_error { index; exn; _ } ->
      (* tasks 3, 23 and 43 all fail; the join must pick the lowest
         index regardless of which worker finished first *)
      Alcotest.(check int) (name ^ ": lowest failing index") 3 index;
      (match exn with
      | Boom v -> Alcotest.(check int) (name ^ ": original exn") 3 v
      | _ -> Alcotest.failf "%s: wrong exception payload" name));
    Alcotest.(check int) (name ^ ": every item ran") 50 (Atomic.get ran)
  in
  check_raises "sequential" (fun () -> Par.parallel_map f xs);
  (* items finish out of order on different workers *)
  with_pool4 (fun pool -> check_raises "parallel" (fun () -> Par.parallel_map ~pool f xs))

let test_empty_input () =
  with_pool4 (fun pool ->
      Alcotest.(check (list int))
        "parallel_map []" []
        (Par.parallel_map ~pool busy []);
      Alcotest.(check (list int))
        "map_seeded []" []
        (Par.map_seeded ~pool ~rng:(Rng.create ~seed:5) (fun _ x -> busy x) []))

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

let test_shutdown_reraises_raw_task () =
  let ran = Atomic.make 0 in
  let task i () = if i = 4 then raise (Boom i) else Atomic.incr ran in
  let pool = Pool.create ~domains:2 () in
  for i = 0 to 9 do
    Pool.submit pool (task i)
  done;
  (match Pool.shutdown pool with
  | () -> Alcotest.fail "first shutdown must re-raise"
  | exception Boom i -> Alcotest.(check int) "first shutdown re-raises" 4 i);
  Alcotest.(check int) "every other task ran" 9 (Atomic.get ran);
  (* the exception is reported once: a second shutdown is a no-op *)
  Pool.shutdown pool

let test_with_pool_shuts_down_on_raise () =
  let escaped = ref None in
  Alcotest.check_raises "body's exception propagates" (Boom 7) (fun () ->
      Pool.with_pool ~domains:2 (fun pool ->
          escaped := Some pool;
          raise (Boom 7)));
  match !escaped with
  | None -> Alcotest.fail "body ran"
  | Some pool ->
    Alcotest.check_raises "submit on the escaped pool"
      (Invalid_argument "Pool.submit: pool is shut down") (fun () ->
        Pool.submit pool (fun () -> ()))

let test_nested_map_runs_inline () =
  with_pool4 (fun pool ->
      List.iter
        (fun (n, in_worker) ->
          let outer = List.init n Fun.id in
          let result =
            (* every item of a list of two or more is a pool task; a
               single item runs on the caller.  Workers only record
               [in_worker]: Alcotest's printing is not domain-safe, so
               the checks run on the joining domain. *)
            Par.parallel_map ~pool
              (fun i ->
                (* inside a worker: must fall back to inline execution
                   rather than deadlock on the queue we are draining *)
                let inner = List.init 5 (fun j -> (i * 10) + j) in
                (Pool.in_worker (), List.fold_left ( + ) 0 (Par.parallel_map ~pool busy inner)))
              outer
          in
          let name = Printf.sprintf "%d items" n in
          Alcotest.(check (list bool)) (name ^ ": in worker")
            (List.map (fun _ -> in_worker) outer)
            (List.map fst result);
          let expected =
            List.map
              (fun i ->
                let inner = List.init 5 (fun j -> (i * 10) + j) in
                List.fold_left ( + ) 0 (List.map busy inner))
              outer
          in
          Alcotest.(check (list int)) (name ^ ": nested result") expected (List.map snd result))
        [ (8, true); (2, true); (1, false) ])

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

(* QCheck law: parallel_map is observationally List.map, for random
   inputs and a pure function. *)
let law_parallel_map_is_map =
  QCheck.Test.make ~count:60 ~name:"parallel_map = List.map"
    QCheck.(small_list int)
    (fun xs ->
      let f x = (x * x) - (3 * x) + 1 in
      Pool.with_pool ~domains:3 (fun pool -> Par.parallel_map ~pool f xs = List.map f xs))

let suite =
  ( "par",
    [
      Alcotest.test_case "map ordering" `Quick test_map_ordering;
      Alcotest.test_case "exception index" `Quick test_exception_index;
      Alcotest.test_case "empty input" `Quick test_empty_input;
      Alcotest.test_case "pool reuse" `Quick test_pool_reuse;
      Alcotest.test_case "submit_batch drains" `Quick test_submit_batch_drains;
      Alcotest.test_case "map_seeded across jobs" `Quick
        test_map_seeded_across_jobs;
      Alcotest.test_case "shutdown rejects submit" `Quick
        test_shutdown_rejects_submit;
      Alcotest.test_case "shutdown re-raises a raw task once" `Quick
        test_shutdown_reraises_raw_task;
      Alcotest.test_case "with_pool shuts down on raise" `Quick
        test_with_pool_shuts_down_on_raise;
      Alcotest.test_case "nested map runs inline" `Quick
        test_nested_map_runs_inline;
      Alcotest.test_case "map_seeded deterministic" `Quick
        test_map_seeded_deterministic;
      QCheck_alcotest.to_alcotest law_parallel_map_is_map;
    ] )
