(* Fixed-size domain pool over one FIFO queue.  Every worker takes the
   next task from the same mutex-guarded queue and, when it is empty,
   waits on one condition.  Submission pushes under the lock and
   signals at most one waiting worker per new task, so no task can be
   stranded behind a parked worker: the emptiness test and the push
   happen under the same lock.  [Condition.broadcast] happens exactly
   once, at shutdown; workers keep taking tasks until the queue is
   empty, so submitted work is never dropped. *)

module Obs = Es_obs.Obs

type t = {
  lock : Mutex.t;  (* guards every mutable field below *)
  nonempty : Condition.t;  (* signalled per new task; broadcast on shutdown *)
  queue : (unit -> unit) Queue.t;
  mutable stopping : bool;
  mutable uncaught : exn option;  (* first raise from a raw submit task *)
  mutable workers : unit Domain.t list;  (* [] once joined *)
  n : int;
}

let c_parks = Obs.counter "par.pool.parks"
let c_batches = Obs.counter "par.pool.submit_batches"

let in_worker_key : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)
let in_worker () = Domain.DLS.get in_worker_key

(* The next task, or [None] once the pool is stopping and drained. *)
let next_task pool =
  Mutex.protect pool.lock (fun () ->
      while Queue.is_empty pool.queue && not pool.stopping do
        Obs.incr c_parks;
        Condition.wait pool.nonempty pool.lock
      done;
      Queue.take_opt pool.queue)

let rec worker_loop pool =
  match next_task pool with
  | None -> ()
  | Some task ->
    (try task ()
     with exn ->
       (* tasks from Par combinators never raise; a raw submit that
          does must not kill the worker silently — keep the first *)
       Mutex.protect pool.lock (fun () ->
           if Option.is_none pool.uncaught then pool.uncaught <- Some exn));
    worker_loop pool

let create ~domains () =
  if domains < 1 then invalid_arg "Pool.create: domains must be >= 1";
  let pool =
    {
      lock = Mutex.create ();
      nonempty = Condition.create ();
      queue = Queue.create ();
      stopping = false;
      uncaught = None;
      workers = [];
      n = domains;
    }
  in
  pool.workers <-
    List.init domains (fun _ ->
        Domain.spawn (fun () ->
            Domain.DLS.set in_worker_key true;
            worker_loop pool));
  pool

let size pool = pool.n

(* Push [tasks] under one lock acquisition, then signal once per task
   but at most once per worker: a further signal could wake nobody. *)
let enqueue pool ~caller tasks =
  Mutex.protect pool.lock (fun () ->
      if pool.stopping then invalid_arg (caller ^ ": pool is shut down");
      Array.iter (fun task -> Queue.push task pool.queue) tasks;
      for _ = 1 to min (Array.length tasks) pool.n do
        Condition.signal pool.nonempty
      done)

let submit pool task = enqueue pool ~caller:"Pool.submit" [| task |]

let submit_batch pool tasks =
  if Array.length tasks > 0 then begin
    enqueue pool ~caller:"Pool.submit_batch" tasks;
    Obs.incr c_batches
  end

let shutdown pool =
  let workers =
    Mutex.protect pool.lock (fun () ->
        let workers = pool.workers in
        pool.workers <- [];
        pool.stopping <- true;
        Condition.broadcast pool.nonempty;
        workers)
  in
  List.iter Domain.join workers;
  (* only the call that joined the workers re-raises *)
  match (pool.uncaught, workers) with Some exn, _ :: _ -> raise exn | _ -> ()

let with_pool ~domains f =
  let pool = create ~domains () in
  Fun.protect ~finally:(fun () -> shutdown pool) (fun () -> f pool)
