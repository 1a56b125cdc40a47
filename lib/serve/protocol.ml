module Json = Es_obs.Obs_json

type instance = {
  weights : float array;
  edges : (Dag.task * Dag.task) list;
  procs : int;
  order : Dag.task list array option;
  model : Speed.t;
  deadline : float;
  rel : Rel.params option;
}

type request = {
  id : Json.t;
  inst : instance;
  budget_s : float option;
}

type parsed = Request of request | Malformed of string

(* ---- parsing ------------------------------------------------------ *)

exception Bad of string

let bad fmt = Printf.ksprintf (fun s -> raise (Bad s)) fmt

let num field = function
  | Json.Num x when Float.is_finite x -> x
  | _ -> bad "field %S must be a finite number" field

let int_field field j =
  let x = num field j in
  if Float.is_integer x && Float.abs x < 1e9 then int_of_float x
  else bad "field %S must be an integer" field

let num_array field = function
  | Json.List items -> Array.of_list (List.map (num field) items)
  | _ -> bad "field %S must be an array of numbers" field

let int_list field = function
  | Json.List items -> List.map (int_field field) items
  | _ -> bad "field %S must be an array of integers" field

let member name j = Json.member name j

let required name j =
  match member name j with
  | Some v -> v
  | None -> bad "missing required field %S" name

let parse_edges j =
  match member "edges" j with
  | None -> []
  | Some (Json.List items) ->
    List.map
      (fun pair ->
        match pair with
        | Json.List [ a; b ] -> (int_field "edges" a, int_field "edges" b)
        | _ -> bad "field \"edges\" must contain [from, to] pairs")
      items
  | Some _ -> bad "field \"edges\" must be an array of [from, to] pairs"

let parse_order j =
  match member "mapping" j with
  | None -> None
  | Some (Json.List procs) ->
    Some (Array.of_list (List.map (int_list "mapping") procs))
  | Some _ -> bad "field \"mapping\" must be an array of task-id arrays"

(* Speed/Rel constructors validate their arguments and raise
   [Invalid_argument]; surface those as parse errors (the handlers are
   written out at each site so the exception stays locally caught). *)
let parse_model j =
  let m = required "model" j in
  let kind =
    match member "kind" m with
    | Some (Json.Str k) -> k
    | _ -> bad "field \"model\" needs a \"kind\" string"
  in
  try
    match kind with
  | "continuous" ->
    Speed.continuous ~fmin:(num "fmin" (required "fmin" m))
      ~fmax:(num "fmax" (required "fmax" m))
  | "discrete" -> Speed.discrete (num_array "levels" (required "levels" m))
  | "vdd" -> Speed.vdd_hopping (num_array "levels" (required "levels" m))
  | "incremental" ->
    Speed.incremental
      ~fmin:(num "fmin" (required "fmin" m))
      ~fmax:(num "fmax" (required "fmax" m))
      ~delta:(num "delta" (required "delta" m))
    | k -> bad "unknown model kind %S" k
  with Invalid_argument msg -> bad "invalid model: %s" msg

let parse_rel ~model j =
  match member "rel" j with
  | None -> None
  | Some r -> (
    let opt name = Option.map (num name) (member name r) in
    try
      Some
        (Rel.make ?lambda0:(opt "lambda0") ?sensitivity:(opt "sensitivity")
           ?frel:(opt "frel") ~fmin:(Speed.fmin model) ~fmax:(Speed.fmax model) ())
    with Invalid_argument msg -> bad "invalid rel: %s" msg)

let parse_line line =
  match Json.of_string line with
  | exception Json.Parse_error msg -> Malformed ("malformed JSON: " ^ msg)
  | Json.Obj _ as j -> (
    try
      let model = parse_model j in
      let inst =
        {
          weights = num_array "tasks" (required "tasks" j);
          edges = parse_edges j;
          procs =
            (match member "procs" j with
            | None -> 1
            | Some p ->
              let p = int_field "procs" p in
              if p < 1 then bad "field \"procs\" must be >= 1" else p);
          order = parse_order j;
          model;
          deadline = num "deadline" (required "deadline" j);
          rel = parse_rel ~model j;
        }
      in
      let budget_s =
        match member "budget_s" j with
        | None -> None
        | Some b ->
          let b = num "budget_s" b in
          if b <= 0. then bad "field \"budget_s\" must be > 0" else Some b
      in
      Request
        { id = Option.value ~default:Json.Null (member "id" j); inst; budget_s }
    with Bad msg -> Malformed msg)
  | _ -> Malformed "request must be a JSON object"

(* ---- instance resolution ------------------------------------------ *)

let dag inst = Dag.make ?labels:None ~weights:inst.weights ~edges:inst.edges

let resolve_order inst =
  match inst.order with
  | Some order -> order
  | None ->
    let d = dag inst in
    let m = List_sched.schedule d ~p:inst.procs ~priority:List_sched.Bottom_level in
    Array.init (Mapping.p m) (Mapping.order m)

let resolve_mapping inst =
  let d = dag inst in
  match inst.order with
  | Some order -> Mapping.make ~p:(Array.length order) d ~order
  | None -> List_sched.schedule d ~p:inst.procs ~priority:List_sched.Bottom_level

(* ---- responses ---------------------------------------------------- *)

type disposition = Cold | Hit | Rescale_hit

let disposition_name = function
  | Cold -> "miss"
  | Hit -> "hit"
  | Rescale_hit -> "rescale-hit"

type literals = {
  energy_lit : string;
  makespan_lit : string;
  speed_lits : string array;
}

type solved = {
  energy : float;
  speeds : float array;
  makespan : float;
  engine : string;
  exact : bool;
  reexecuted : Dag.task list;
  literals : literals option;
}

type status =
  | Solved of solved
  | Infeasible of string
  | Rejected of string
  | Shed of string
  | Over_budget of { budget_s : float }

type response = {
  rid : Json.t;
  status : status;
  cache : disposition option;
  self_check : bool option;
}

let solved_of_schedule ~engine ~exact sched =
  let dag = Schedule.dag sched in
  let n = Dag.n dag in
  let speeds =
    Array.init n (fun i ->
        match Schedule.executions sched i with
        | e :: _ -> Dag.weight dag i /. Schedule.exec_time e
        | [] -> 0. (* Schedule.make guarantees >= 1 execution *))
  in
  let reexecuted =
    List.filter (Schedule.reexecuted sched) (List.init n (fun i -> i))
  in
  {
    energy = Schedule.energy sched;
    speeds;
    makespan = Schedule.makespan sched;
    engine;
    exact;
    reexecuted;
    literals = None;
  }

let render r =
  let open Json in
  let list f xs = List (Array.to_list (Array.map f xs)) in
  let ints xs = List (List.map (fun i -> Num (float_of_int i)) xs) in
  let cache_field =
    match r.cache with
    | None -> []
    | Some d -> [ ("cache", Str (disposition_name d)) ]
  in
  let self_check_field =
    match r.self_check with
    | None -> []
    | Some ok -> [ ("self_check", Str (if ok then "ok" else "fail")) ]
  in
  let fields =
    match r.status with
    | Solved s ->
      let energy, makespan, speeds =
        match s.literals with
        | Some l -> (Lit l.energy_lit, Lit l.makespan_lit, list (fun x -> Lit x) l.speed_lits)
        | None -> (Num s.energy, Num s.makespan, list (fun x -> Num x) s.speeds)
      in
      [ ("id", r.rid); ("status", Str "ok") ]
      @ cache_field
      @ [
          ("engine", Str s.engine);
          ("exact", Bool s.exact);
          ("energy", energy);
          ("makespan", makespan);
          ("speeds", speeds);
        ]
      @ (if s.reexecuted = [] then [] else [ ("reexecuted", ints s.reexecuted) ])
      @ self_check_field
    | Infeasible msg ->
      [ ("id", r.rid); ("status", Str "infeasible") ]
      @ cache_field
      @ [ ("error", Str msg) ]
    | Rejected msg -> [ ("id", r.rid); ("status", Str "error"); ("error", Str msg) ]
    | Shed msg -> [ ("id", r.rid); ("status", Str "shed"); ("error", Str msg) ]
    | Over_budget { budget_s } ->
      [ ("id", r.rid); ("status", Str "over-budget"); ("budget_s", Num budget_s) ]
  in
  Json.to_compact_string (Obj fields)
