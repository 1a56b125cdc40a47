module Obs = Es_obs.Obs

type t = { mutable walls_rev : float list; mutable count : int; mutable last : float }

let reference_s = 2e-3

let at_reference ~kernel wall = wall *. reference_s /. kernel

let create () = { walls_rev = []; count = 0; last = Float.neg_infinity }

(* About 2 ms on the machine the benchmark was built on, 1.1 ms at its
   fastest.  Of four kernels timed next to the workloads' operations for
   ten minutes (this one, dependent reads over a 1 MB and a 4 MB array,
   and short-lived list churn), this one followed their slowdowns most
   closely: the quotients' quartile spread over ten 20-second windows
   was 4-6%, against 8-11% for the operations' median wall time. *)
let kernel () =
  let h = Hashtbl.create 1024 in
  for i = 0 to 4000 do
    Hashtbl.replace h (string_of_int (i * 7919 mod 20011)) (float_of_int i)
  done;
  let values = Hashtbl.fold (fun _ v acc -> v :: acc) h [] in
  Sys.opaque_identity (Array.of_list (List.sort Float.compare values))

let sample t =
  let t0 = Obs.now () in
  ignore (kernel ());
  let t1 = Obs.now () in
  Gc.minor ();
  t.walls_rev <- (t1 -. t0) :: t.walls_rev;
  t.count <- t.count + 1;
  t.last <- Obs.now ()

let due t ~interval = Obs.now () -. t.last >= interval

let count t = t.count

(* Samples on each side of an operation that {!around} takes the median
   of: one kernel run is as noisy as a short operation, and the host's
   speed drifts over longer stretches than a few samples span. *)
let half_window = 5

let around t marks =
  let walls = Array.of_list (List.rev t.walls_rev) in
  let n = Array.length walls in
  Array.map
    (fun m ->
      if m < 1 || m > n then invalid_arg "Calib.around: no sample before the operation"
      else begin
        let lo = max 0 (m - half_window) and hi = min n (m + half_window) in
        Es_util.Stats.median (Array.sub walls lo (hi - lo))
      end)
    marks

let median_ms t =
  match t.walls_rev with
  | [] -> 0.
  | walls -> 1e3 *. Es_util.Stats.median (Array.of_list walls)
