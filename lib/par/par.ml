(* Deterministic combinators over Pool.  The design invariant: result
   assembly, exception selection and RNG stream assignment depend only
   on the input list, never on which worker ran what or in which
   order.  See par.mli for the contract. *)

module Obs = Es_obs.Obs

exception Task_error of { index : int; exn : exn; backtrace : string }

let c_tasks = Obs.counter "par.chunk.tasks"

(* An item's result or what it raised: nothing raises into the pool. *)
let protected f x =
  match f x with
  | y -> Ok y
  | exception exn -> Error (exn, Printexc.get_backtrace ())

(* Thunks must not raise.  Each completion is one plain slot write plus
   one atomic decrement; only the final task touches the mutex, to hand
   the join condition to the caller.  There is no polling and no
   per-completion lock. *)
let run_thunks pool (thunks : (unit -> 'r) array) : 'r list =
  let n = Array.length thunks in
  let slots : 'r option array = Array.make n None in
  let remaining = Atomic.make n in
  let m = Mutex.create () in
  let all_done = Condition.create () in
  let tasks =
    Array.mapi
      (fun i thunk () ->
        let r = thunk () in
        slots.(i) <- Some r;
        (* the decrement publishes the slot write; the last task
           signals the joiner under the lock it waits on *)
        if Atomic.fetch_and_add remaining (-1) = 1 then begin
          Mutex.lock m;
          Condition.signal all_done;
          Mutex.unlock m
        end)
      thunks
  in
  Pool.submit_batch pool tasks;
  Mutex.lock m;
  while Atomic.get remaining > 0 do
    Condition.wait all_done m
  done;
  Mutex.unlock m;
  List.init n (fun i ->
      match slots.(i) with
      | Some r -> r
      | None -> assert false (* every slot resolved before the join *))

let parallel_map ?pool f xs =
  let outcomes =
    match (pool, xs) with
    | Some pool, _ :: _ :: _ when not (Pool.in_worker ()) ->
      let thunks = Array.of_list (List.map (fun x () -> protected f x) xs) in
      Obs.add c_tasks (Array.length thunks);
      run_thunks pool thunks
    | _ -> List.map (protected f) xs
  in
  (* outcomes are in submission order, so the first error met is the
     lowest failing index *)
  List.mapi
    (fun index -> function
      | Ok y -> y
      | Error (exn, backtrace) -> raise (Task_error { index; exn; backtrace }))
    outcomes

let map_seeded ?pool ~rng f xs =
  (* split with fold_left, whose application order is guaranteed: the
     order of the splits is part of the determinism contract *)
  let seeded =
    List.rev
      (List.fold_left (fun acc x -> (Es_util.Rng.split rng, x) :: acc) [] xs)
  in
  parallel_map ?pool (fun (r, x) -> f r x) seeded
