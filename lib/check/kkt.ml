module Futil = Es_util.Futil
module Rng = Es_util.Rng

type verdict = Ok | Violation of string

let is_ok = function Ok -> true | Violation _ -> false
let describe = function Ok -> "KKT conditions hold" | Violation v -> "KKT violated: " ^ v

let violationf fmt = Printf.ksprintf (fun s -> Violation s) fmt

(* Relative slop of every comparison, and of the energy accounting. *)
let tol = 1e-6

(* [significantly_less a b]: a < b beyond a symmetric relative slop.
   The slop scales with the operands, so both sides of every
   comparison keep the operands' unit. *)
let significantly_less a b = b -. a > tol *. (Float.abs a +. Float.abs b)

let energy_of ~weights ~speeds =
  Futil.sum (Array.map2 (fun w f -> w *. f *. f) weights speeds)

let check_waterfill ~eff_weights ~floors ~fmax ~deadline ~speeds =
  let n = Array.length eff_weights in
  if Array.length speeds <> n || Array.length floors <> n then
    Violation "dimension mismatch"
  else begin
    let bad = ref Ok in
    let report v = match !bad with Ok -> bad := v | Violation _ -> () in
    Array.iteri
      (fun i f ->
        if significantly_less f floors.(i) then
          report (violationf "task %d below its floor (%g < %g)" i f floors.(i));
        if significantly_less fmax f then
          report (violationf "task %d above fmax (%g > %g)" i f fmax))
      speeds;
    let time = Futil.sum (Array.mapi (fun i f -> eff_weights.(i) /. f) speeds) in
    if time > deadline *. (1. +. tol) then
      report (violationf "total time %g exceeds deadline %g" time deadline);
    (* Common level: every task strictly above its floor must run at
       one shared speed f_c, and floor-clamped tasks must sit at a
       floor at least f_c (they would otherwise join the water
       level). *)
    let unclamped =
      Array.to_list
        (Array.mapi (fun i f -> (i, f)) speeds)
      |> List.filter (fun (i, f) -> significantly_less floors.(i) f)
    in
    (match unclamped with
    | [] -> ()
    | (_, f0) :: rest ->
      List.iter
        (fun (i, f) ->
          if not (Futil.approx_equal ~rel:tol ~abs:tol f f0) then
            report
              (violationf "unclamped tasks disagree on the common speed (%g vs %g at task %d)"
                 f0 f i))
        rest;
      let f_c = f0 in
      Array.iteri
        (fun i f ->
          let clamped = not (significantly_less floors.(i) f) in
          if clamped && significantly_less floors.(i) f_c then
            report
              (violationf
                 "task %d clamped at floor %g below the water level %g (should run at f_c)" i
                 floors.(i) f_c))
        speeds;
      (* Saturation: with at least one task above its floor the
         deadline must bind — otherwise slowing that task strictly
         reduces energy while staying feasible. *)
      if time < deadline *. (1. -. tol) then
        report
          (violationf "deadline not saturated (%g < %g) yet task speeds are above their floors"
             time deadline));
    !bad
  end

let check_chain ~weights ~deadline ~fmin ~fmax (r : Bicrit_continuous.result) =
  let n = Array.length weights in
  if Array.length r.speeds <> n then Violation "dimension mismatch"
  else begin
    let floors = Array.make n fmin in
    match
      check_waterfill ~eff_weights:weights ~floors ~fmax ~deadline ~speeds:r.speeds
    with
    | Violation _ as v -> v
    | Ok ->
      let e = energy_of ~weights ~speeds:r.speeds in
      if not (Futil.approx_equal ~rel:tol ~abs:tol e r.energy) then
        violationf "energy accounting wrong: reported %g, speeds imply %g" r.energy e
      else Ok
  end

let check_general ~deadline ~lo ~hi mapping (r : Bicrit_continuous.result) =
  let cdag = Mapping.constraint_dag mapping in
  let n = Dag.n cdag in
  let w = Dag.weights cdag in
  if Array.length r.speeds <> n then Violation "dimension mismatch"
  else begin
    let bad = ref Ok in
    let report v = match !bad with Ok -> bad := v | Violation _ -> () in
    Array.iteri
      (fun i f ->
        if significantly_less f lo.(i) then
          report (violationf "task %d below lo (%g < %g)" i f lo.(i));
        if significantly_less hi.(i) f then
          report (violationf "task %d above hi (%g > %g)" i f hi.(i)))
      r.speeds;
    let durations = Array.init n (fun i -> w.(i) /. r.speeds.(i)) in
    let makespan = Dag.critical_path_length cdag ~durations in
    if makespan > deadline *. (1. +. tol) then
      report (violationf "makespan %g exceeds deadline %g" makespan deadline);
    let e = energy_of ~weights:w ~speeds:r.speeds in
    if not (Futil.approx_equal ~rel:tol ~abs:tol e r.energy) then
      report (violationf "energy accounting wrong: reported %g, speeds imply %g" r.energy e);
    (* Critical-path saturation: a task above its lower clamp must have
       (almost) no slack against the deadline. *)
    let slack = Dag.slack cdag ~durations ~deadline in
    Array.iteri
      (fun i f ->
        if significantly_less lo.(i) f && slack.(i) > 1e-3 *. deadline then
          report
            (violationf "task %d runs at %g > lo %g but has slack %g (could be slowed)" i f
               lo.(i) slack.(i)))
      r.speeds;
    (* 32 exchange probes: transferring a sliver of duration between two
       tasks must not produce a feasible, strictly cheaper point. *)
    (match !bad with
    | Violation _ -> ()
    | Ok ->
      if n >= 2 then begin
        let rng = Rng.create ~seed:7 in
        let base_energy = e in
        for _ = 1 to 32 do
          let i = Rng.int rng n in
          let j = Rng.int rng n in
          if i <> j then begin
            let delta = 0.01 *. Float.min durations.(i) durations.(j) in
            let d' = Array.copy durations in
            d'.(i) <- durations.(i) +. delta;
            d'.(j) <- durations.(j) -. delta;
            let f' = Array.init n (fun k -> w.(k) /. d'.(k)) in
            let in_bounds =
              Array.for_all Fun.id
                (Array.init n (fun k -> f'.(k) >= lo.(k) && f'.(k) <= hi.(k)))
            in
            if in_bounds && Dag.critical_path_length cdag ~durations:d' <= deadline then begin
              let e' = energy_of ~weights:w ~speeds:f' in
              if e' < base_energy *. (1. -. tol) then
                report
                  (violationf
                     "exchange probe found a cheaper feasible point (move %g of duration from \
                      task %d to %d: %g -> %g)"
                     delta j i base_energy e')
            end
          end
        done
      end);
    !bad
  end
