(* Global, process-wide solver telemetry: named counters and
   wall-clock timers.  Everything is disabled by default; the single
   [on] test keeps the instrumented hot paths within noise of the
   uninstrumented code when telemetry is off.

   Handles ([counter]/[timer]) are meant to be created once at module
   initialisation and hit through a record field, so the hot path never
   touches the registry hashtable.

   Domain safety: the toggle and the clock are [Atomic.t]; counter and
   timer cells are atomic integers (durations accumulate in integer
   nanoseconds, so [Atomic.fetch_and_add] applies); and the
   name->handle registries are guarded by one mutex, taken only on the
   cold find-or-create and snapshot/reset paths.  No state is
   per-domain. *)

let on = Atomic.make false

let enable () = Atomic.set on true
let disable () = Atomic.set on false

(* ------------------------------------------------------------------ *)
(* clock                                                               *)
(* ------------------------------------------------------------------ *)

let clock = Atomic.make Unix.gettimeofday

let set_clock f = Atomic.set clock f
let now () = (Atomic.get clock) ()

(* ------------------------------------------------------------------ *)
(* registries                                                          *)
(* ------------------------------------------------------------------ *)

(* One lock for every registry: find-or-create happens at module
   initialisation, snapshot/reset between runs — never on the hot
   path, so contention is a non-issue. *)
let registry_mutex = Mutex.create ()

let locked f = Mutex.protect registry_mutex f

(* ------------------------------------------------------------------ *)
(* counters                                                            *)
(* ------------------------------------------------------------------ *)

type counter = int Atomic.t

let counters : (string, counter) Hashtbl.t = Hashtbl.create 64

let counter name =
  locked @@ fun () ->
  match Hashtbl.find_opt counters name with
  | Some c -> c
  | None ->
    let c = Atomic.make 0 in
    Hashtbl.add counters name c;
    c

let incr c = if Atomic.get on then Atomic.incr c
let add c k = if Atomic.get on then ignore (Atomic.fetch_and_add c k)
let value c = Atomic.get c

(* ------------------------------------------------------------------ *)
(* timers                                                              *)
(* ------------------------------------------------------------------ *)

(* Durations are accumulated in integer nanoseconds: floats cannot be
   atomically added, ints can ([fetch_and_add]), and 2^62 ns is ~146
   years of accumulated time — far beyond any run. *)

type timer = { total_ns : int Atomic.t; count : int Atomic.t }

let ns_of_seconds dt = int_of_float (Float.round (Float.max dt 0. *. 1e9))
let seconds_of_ns ns = float_of_int ns /. 1e9

let timers : (string, timer) Hashtbl.t = Hashtbl.create 64

let timer name =
  locked @@ fun () ->
  match Hashtbl.find_opt timers name with
  | Some t -> t
  | None ->
    let t = { total_ns = Atomic.make 0; count = Atomic.make 0 } in
    Hashtbl.add timers name t;
    t

let record t dt =
  (* clamp: a stepping wall clock must never produce negative totals *)
  ignore (Atomic.fetch_and_add t.total_ns (ns_of_seconds dt));
  Atomic.incr t.count

let time t f =
  if not (Atomic.get on) then f ()
  else begin
    let t0 = now () in
    Fun.protect ~finally:(fun () -> record t (now () -. t0)) f
  end

let timer_total t = seconds_of_ns (Atomic.get t.total_ns)
let timer_count t = Atomic.get t.count

(* ------------------------------------------------------------------ *)
(* reset / snapshot                                                    *)
(* ------------------------------------------------------------------ *)

let reset () =
  (* zero in place: modules hold handles obtained at init time.  Call
     when no other domain is mid-measurement; concurrent increments
     land in the fresh epoch. *)
  locked @@ fun () ->
  Hashtbl.iter (fun _ c -> Atomic.set c 0) counters;
  Hashtbl.iter
    (fun _ t ->
      Atomic.set t.total_ns 0;
      Atomic.set t.count 0)
    timers

type timer_stat = { total : float; count : int }

type snapshot = {
  counters : (string * int) list;
  timers : (string * timer_stat) list;
}

let snapshot () =
  locked @@ fun () ->
  let cs =
    Hashtbl.fold
      (fun name c acc ->
        let n = Atomic.get c in
        if n <> 0 then (name, n) :: acc else acc)
      counters []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  let ts =
    Hashtbl.fold
      (fun name (t : timer) acc ->
        let count = Atomic.get t.count in
        if count <> 0 then
          (name, { total = seconds_of_ns (Atomic.get t.total_ns); count }) :: acc
        else acc)
      timers []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  { counters = cs; timers = ts }

(* ------------------------------------------------------------------ *)
(* rendering                                                           *)
(* ------------------------------------------------------------------ *)

let pp_duration secs =
  if secs >= 1. then Printf.sprintf "%.3f s" secs
  else if secs >= 1e-3 then Printf.sprintf "%.3f ms" (secs *. 1e3)
  else if secs >= 1e-6 then Printf.sprintf "%.3f us" (secs *. 1e6)
  else Printf.sprintf "%.0f ns" (secs *. 1e9)

let render_text snap =
  let buf = Buffer.create 512 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  if snap.counters = [] && snap.timers = [] then
    line "obs: no telemetry recorded (was Obs.enable called?)"
  else begin
    if snap.counters <> [] then begin
      line "counters:";
      List.iter (fun (name, n) -> line "  %-36s %12d" name n) snap.counters
    end;
    if snap.timers <> [] then begin
      line "timers:%-31s %12s %8s %12s" "" "total" "count" "mean";
      List.iter
        (fun (name, (t : timer_stat)) ->
          line "  %-36s %12s %8d %12s" name (pp_duration t.total) t.count
            (pp_duration (t.total /. float_of_int t.count)))
        snap.timers
    end
  end;
  Buffer.contents buf
