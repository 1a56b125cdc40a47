module Json = Es_obs.Obs_json
module Protocol = Es_serve.Protocol
module Kkt = Es_check.Kkt
module Lp_cert = Es_check.Lp_cert
module Problem = Es_lp.Problem

let ( let* ) = Result.bind

let close ~tol a b = Float.abs (a -. b) <= tol *. Float.max (Float.abs a) (Float.abs b)

(* ---- response fields ---------------------------------------------- *)

let field name j =
  match Json.member name j with Some v -> Ok v | None -> Error ("no " ^ name)

let num name j =
  match field name j with Ok (Json.Num x) -> Ok x | _ -> Error (name ^ " is not a number")

let str name j =
  match field name j with Ok (Json.Str s) -> Ok s | _ -> Error (name ^ " is not a string")

let floats name j =
  match field name j with
  | Ok (Json.List xs) ->
    List.fold_right
      (fun x acc ->
        match (x, acc) with
        | Json.Num v, Ok vs -> Ok (v :: vs)
        | _, Error e -> Error e
        | _, Ok _ -> Error (name ^ " holds a non-number"))
      xs (Ok [])
    |> Result.map Array.of_list
  | _ -> Error (name ^ " is not an array")

type solved = {
  energy : float;
  speeds : float array;
  makespan : float;
  exact : bool;
  reexecuted : int list;
}

(* The response to request [id] must be a solved answer with the
   given cache disposition. *)
let solved_response ~id ~cache line =
  let* j = try Ok (Json.of_string line) with Json.Parse_error msg -> Error msg in
  let* rid = num "id" j in
  let* () = if rid = float_of_int id then Ok () else Error (Printf.sprintf "id %g echoed for %d" rid id) in
  let* status = str "status" j in
  let* () =
    if String.equal status "ok" then Ok ()
    else Error (Printf.sprintf "status %s: %s" status (Result.value ~default:"" (str "error" j)))
  in
  let* disposition = str "cache" j in
  let* () =
    if String.equal disposition cache then Ok ()
    else Error (Printf.sprintf "cache %s, expected %s" disposition cache)
  in
  let* energy = num "energy" j in
  let* makespan = num "makespan" j in
  let* speeds = floats "speeds" j in
  let* exact = match field "exact" j with Ok (Json.Bool b) -> Ok b | _ -> Error "no exact flag" in
  let reexecuted =
    match floats "reexecuted" j with Ok ts -> List.map int_of_float (Array.to_list ts) | Error _ -> []
  in
  Ok { energy; speeds; makespan; exact; reexecuted }

(* ---- optimality certificates -------------------------------------- *)

let vdd_optimum ~deadline ~levels mapping =
  let lp = Bicrit_vdd.lp ~deadline ~levels mapping in
  match Problem.solve lp with
  | Problem.Solution s -> (
    match Lp_cert.certify_problem lp s with
    | Lp_cert.Certified _ -> Ok (Problem.objective s)
    | Lp_cert.Rejected _ as v -> Error ("LP optimum not certified: " ^ Lp_cert.describe v))
  | Problem.Infeasible | Problem.Unbounded -> Error "reference LP has no optimum"

let is_optimum opt energy =
  if close ~tol:1e-6 opt energy then Ok ()
  else Error (Printf.sprintf "energy %.17g, certified LP optimum %.17g" energy opt)

let certified_vdd ~deadline ~levels mapping energy =
  let* opt = vdd_optimum ~deadline ~levels mapping in
  is_optimum opt energy

let kkt ~deadline ~fmin ~fmax mapping ~speeds ~energy =
  let n = Array.length speeds in
  match
    Kkt.check_general ~deadline ~lo:(Array.make n fmin) ~hi:(Array.make n fmax) mapping
      { Bicrit_continuous.speeds; energy }
  with
  | Kkt.Ok -> Ok ()
  | Kkt.Violation _ as v -> Error ("KKT: " ^ Kkt.describe v)

let valid ?rel ~deadline ~model sched =
  match Validate.check ~deadline ?rel ~model sched with
  | [] -> Ok ()
  | v :: _ -> Error ("infeasible answer: " ^ Validate.explain (Schedule.dag sched) v)

(* ---- one solved request ------------------------------------------- *)

let check_request (r : Inputs.request) (s : solved) =
  let inst = r.inst in
  let mapping = Protocol.resolve_mapping inst in
  let n = Array.length inst.weights in
  let* () =
    if Array.length s.speeds = n then Ok ()
    else Error (Printf.sprintf "%d speeds for %d tasks" (Array.length s.speeds) n)
  in
  let deadline = inst.deadline in
  let model = inst.model in
  let levels = Option.value ~default:[||] (Speed.levels model) in
  (* A VDD-HOPPING answer's effective speeds are mixes of levels: any
     value in the menu's range.  Its energy is checked by the LP. *)
  let mixed_feasible () =
    let range = Speed.continuous ~fmin:(Speed.fmin model) ~fmax:(Speed.fmax model) in
    let* () = valid ~deadline ~model:range (Schedule.of_speeds mapping ~speeds:s.speeds) in
    if s.makespan <= deadline *. (1. +. 1e-9) then Ok ()
    else Error (Printf.sprintf "makespan %g over deadline %g" s.makespan deadline)
  in
  (* Every other answer runs each execution at one speed, re-executed
     tasks twice at the same speed. *)
  let rebuilt_feasible () =
    let executions =
      Array.init n (fun i ->
          let part = { Schedule.speed = s.speeds.(i); time = inst.weights.(i) /. s.speeds.(i) } in
          if List.mem i s.reexecuted then [ [ part ]; [ part ] ] else [ [ part ] ])
    in
    let sched = Schedule.make mapping ~executions in
    let* () = valid ?rel:inst.rel ~deadline ~model sched in
    if close ~tol:1e-6 (Schedule.energy sched) s.energy then Ok ()
    else Error (Printf.sprintf "energy %.17g, recomputed %.17g" s.energy (Schedule.energy sched))
  in
  match r.kind with
  | Vdd ->
    let* () = mixed_feasible () in
    certified_vdd ~deadline ~levels mapping s.energy
  | Vdd_rel ->
    let* () = mixed_feasible () in
    (* re-executions only add energy: the BI-CRIT optimum bounds it *)
    let* opt = vdd_optimum ~deadline ~levels mapping in
    if s.energy >= opt *. (1. -. 1e-6) then Ok ()
    else Error (Printf.sprintf "energy %g below the BI-CRIT optimum %g" s.energy opt)
  | Continuous ->
    let* () = rebuilt_feasible () in
    if s.exact then
      kkt ~deadline ~fmin:(Speed.fmin model) ~fmax:(Speed.fmax model) mapping ~speeds:s.speeds
        ~energy:s.energy
    else Ok ()
  | Discrete_bb | Discrete_round | Incremental | Continuous_rel -> rebuilt_feasible ()

(* Run one check, turning an escaping exception into a failure. *)
let guard f = try f () with e -> Error (Printexc.to_string e)

let failures results =
  List.filter_map (function Ok () -> None | Error msg -> Some msg) results

(* Pair requests with responses; a missing or extra response fails. *)
let paired ~what n responses check =
  let rec go i rs acc =
    match rs with
    | r :: rest when i < n -> go (i + 1) rest (guard (fun () -> check i r) :: acc)
    | [] when i < n -> go (i + 1) [] (Error (Printf.sprintf "%s %d: no response" what i) :: acc)
    | _ :: rest -> go (i + 1) rest (Error "response to no request" :: acc)
    | [] -> List.rev acc
  in
  failures (go 0 responses [])

let serve_cold (requests : Inputs.request array) responses =
  paired ~what:"request" (Array.length requests) responses (fun i line ->
      let r = requests.(i) in
      let* s = solved_response ~id:r.id ~cache:"miss" line in
      Result.map_error (Printf.sprintf "request %d: %s" r.id) (check_request r s))

let serve_hot (hot : Inputs.hot) ~primed responses =
  let bases = hot.bases in
  let refs = Array.make (Array.length bases) None in
  let base_failures =
    paired ~what:"base" (Array.length bases) primed (fun i line ->
        let r = bases.(i) in
        let* s = solved_response ~id:r.id ~cache:"miss" line in
        let* () = check_request r s in
        refs.(i) <- Some s;
        Ok ())
  in
  let trace = hot.trace in
  base_failures
  @ paired ~what:"hot request" (Array.length trace) responses (fun i line ->
        let h = trace.(i) in
        let cache = match h.variant with Inputs.Rescale _ -> "rescale-hit" | _ -> "hit" in
        let* s = solved_response ~id:h.hid ~cache line in
        let* ref_ =
          Option.to_result ~none:(Printf.sprintf "base %d has no reference answer" h.base)
            refs.(h.base)
        in
        let expected_speeds, expected_energy, tol =
          match h.variant with
          | Inputs.Repeat -> (ref_.speeds, ref_.energy, 0.)
          | Inputs.Relabel { sigma } -> (Array.map (fun b -> ref_.speeds.(b)) sigma, ref_.energy, 0.)
          | Inputs.Rescale { c; d } ->
            (Array.map (fun f -> f *. c /. d) ref_.speeds, ref_.energy *. c *. c *. c /. (d *. d), 1e-9)
        in
        if
          Array.length s.speeds = Array.length expected_speeds
          && Array.for_all2 (close ~tol) s.speeds expected_speeds
          && close ~tol s.energy expected_energy
        then Ok ()
        else Error (Printf.sprintf "hot request %d differs from its base %d" h.hid h.base))

let pareto (inputs : Inputs.front_input list) fronts =
  let check (f : Inputs.front_input) (points : Pareto.point list) =
    let* () =
      if List.equal Float.equal (List.map (fun (p : Pareto.point) -> p.deadline) points) f.deadlines
      then Ok ()
      else Error "front misses deadlines"
    in
    let* () = if Pareto.is_front points then Ok () else Error "points dominate each other" in
    let pts = Array.of_list points in
    let k = Array.length pts in
    List.fold_left
      (fun acc i ->
        let* () = acc in
        let p = pts.(i) in
        certified_vdd ~deadline:p.deadline ~levels:f.levels f.mapping p.energy)
      (Ok ())
      (List.sort_uniq Int.compare [ 0; k / 2; k - 1 ])
  in
  failures (List.map2 (fun f points -> guard (fun () -> check f points)) inputs fronts)

let large ~optimum (inputs : Inputs.large list) answers =
  let check i (l : Inputs.large) = function
    | Error msg -> Error (l.name ^ ": " ^ msg)
    | Ok (a : Solver.answer) ->
      let { Solver.mapping; model; deadline; _ } = l.request in
      let* () = valid ~deadline ~model a.schedule in
      let* () =
        if close ~tol:1e-9 a.energy (Schedule.energy a.schedule) then Ok ()
        else Error (l.name ^ ": energy differs from its schedule's")
      in
      let { Protocol.speeds; _ } =
        Protocol.solved_of_schedule ~engine:a.engine ~exact:a.exact a.schedule
      in
      Result.map_error (fun e -> l.name ^ ": " ^ e)
        (match model with
        | Speed.Continuous { fmin; fmax } -> kkt ~deadline ~fmin ~fmax mapping ~speeds ~energy:a.energy
        | Speed.Vdd_hopping _ ->
          let* opt = optimum i in
          is_optimum opt a.energy
        | Speed.Discrete _ | Speed.Incremental _ -> Ok ())
  in
  failures (List.mapi (fun i (l, a) -> guard (fun () -> check i l a)) (List.combine inputs answers))
