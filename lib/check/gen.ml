module Rng = Es_util.Rng
module Json = Es_obs.Obs_json

type shape = Chain | Fork | Join | Sp | Layered | General

type inst = {
  shape : shape;
  weights : float array;
  edges : (Dag.task * Dag.task) list;
  procs : int;
  slack : float;
  levels : float array;
}

let shape_name = function
  | Chain -> "chain"
  | Fork -> "fork"
  | Join -> "join"
  | Sp -> "sp"
  | Layered -> "layered"
  | General -> "general"

let all_shapes = [ Chain; Fork; Join; Sp; Layered; General ]

let dag t = Dag.make ?labels:None ~weights:t.weights ~edges:t.edges

let mapping t =
  let d = dag t in
  match t.shape with
  | Chain -> Mapping.single_processor d
  | Fork | Join | Sp -> Mapping.one_task_per_proc d
  | Layered | General ->
    List_sched.schedule d ~p:(max 1 t.procs) ~priority:List_sched.Bottom_level

let fmin t = t.levels.(0)
let fmax t = t.levels.(Array.length t.levels - 1)

let delta t =
  if Array.length t.levels < 2 then 0.1
  else t.levels.(1) -. t.levels.(0)

let dmin t = List_sched.makespan_at_speed (mapping t) ~f:(fmax t)
let deadline t = t.slack *. dmin t

(* ---- generation --------------------------------------------------- *)

let grid ~flo ~d ~m = Array.init m (fun i -> flo +. (float_of_int i *. d))

let gen_levels rng =
  let m = 2 + Rng.int rng 4 in
  let flo = Rng.uniform_in rng 0.2 0.5 in
  let d = Rng.uniform_in rng 0.1 0.3 in
  grid ~flo ~d ~m

let gen_slack rng =
  (* a thin slice of deliberately infeasible instances keeps the
     None/None agreement paths honest *)
  if Rng.bernoulli rng 0.06 then Rng.uniform_in rng 0.3 0.95
  else Rng.uniform_in rng 1.05 3.

let of_dag ~shape ~procs ~slack ~levels d =
  { shape; weights = Dag.weights d; edges = Dag.edges d; procs; slack; levels }

let generate ?(shapes = all_shapes) rng =
  let shape =
    match shapes with
    | [] -> General
    | _ -> Rng.choice rng (Array.of_list shapes)
  in
  let wlo = 0.5 and whi = 3. in
  let d =
    match shape with
    | Chain -> Generators.chain rng ~n:(1 + Rng.int rng 8) ~wlo ~whi
    | Fork -> Generators.fork rng ~n:(1 + Rng.int rng 7) ~wlo ~whi
    | Join -> Generators.join rng ~n:(1 + Rng.int rng 7) ~wlo ~whi
    | Sp -> Sp.to_dag (Generators.random_sp rng ~n:(2 + Rng.int rng 7) ~wlo ~whi)
    | Layered ->
      Generators.random_layered rng ~layers:(2 + Rng.int rng 3) ~width:(1 + Rng.int rng 3)
        ~density:(Rng.uniform_in rng 0.3 0.8) ~wlo ~whi
    | General -> Generators.random_dag rng ~n:(2 + Rng.int rng 8) ~p:(Rng.uniform_in rng 0.2 0.5) ~wlo ~whi
  in
  let procs = 1 + Rng.int rng 3 in
  of_dag ~shape ~procs ~slack:(gen_slack rng) ~levels:(gen_levels rng) d

(* ---- shrinking ---------------------------------------------------- *)

let keep_tasks t keep =
  (* [keep] is a sorted list of surviving task ids; edges are the
     induced ones, ids remapped densely. *)
  let n = Array.length t.weights in
  let remap = Array.make n (-1) in
  List.iteri (fun fresh old -> remap.(old) <- fresh) keep;
  let weights = Array.of_list (List.map (fun i -> t.weights.(i)) keep) in
  let edges =
    List.filter_map
      (fun (a, b) ->
        if a < n && b < n && remap.(a) >= 0 && remap.(b) >= 0 then
          Some (remap.(a), remap.(b))
        else None)
      t.edges
  in
  { t with weights; edges }

let range a b = List.init (b - a) (fun i -> a + i)

let shrink t =
  let n = Array.length t.weights in
  let candidates = ref [] in
  let add c = candidates := c :: !candidates in
  (* bisect the task set *)
  if n > 1 then begin
    add (keep_tasks t (range 0 ((n + 1) / 2)));
    add (keep_tasks t (range (n / 2) n))
  end;
  (* drop single tasks (bounded fan-out) *)
  if n > 1 && n <= 12 then
    for i = n - 1 downto 0 do
      add (keep_tasks t (List.filter (fun j -> j <> i) (range 0 n)))
    done;
  (* simplify weights *)
  if Array.exists (fun w -> Float.abs (w -. 1.) > 1e-9) t.weights then begin
    add { t with weights = Array.map (fun _ -> 1.) t.weights };
    add { t with weights = Array.map (fun w -> 0.5 *. (w +. 1.)) t.weights }
  end;
  (* collapse the level grid *)
  let m = Array.length t.levels in
  if m > 2 then begin
    add { t with levels = [| t.levels.(0); t.levels.(1) |] };
    add { t with levels = Array.sub t.levels 0 (m - 1) }
  end;
  (* round the slack, drop processors *)
  if Float.abs (t.slack -. 2.) > 1e-9 && t.slack > 1. then add { t with slack = 2. };
  if Float.abs (t.slack -. 1.5) > 1e-9 && t.slack > 1. then add { t with slack = 1.5 };
  if t.procs > 1 then add { t with procs = 1 };
  List.to_seq (List.rev !candidates)

(* ---- rendering ---------------------------------------------------- *)

let pp ppf t =
  let fa ppf a =
    Array.iteri (fun i x -> Format.fprintf ppf "%s%g" (if i = 0 then "" else " ") x) a
  in
  Format.fprintf ppf
    "@[<v>shape: %s (%d tasks, %d edges)@,weights: %a@,edges: %s@,procs: %d@,slack: %g \
     (deadline %g, dmin %g)@,levels: %a@]"
    (shape_name t.shape) (Array.length t.weights) (List.length t.edges) fa t.weights
    (String.concat ", " (List.map (fun (a, b) -> Printf.sprintf "%d->%d" a b) t.edges))
    t.procs t.slack (deadline t) (dmin t) fa t.levels

let describe t = Format.asprintf "%a" pp t

let to_json t =
  Json.Obj
    [
      ("shape", Json.Str (shape_name t.shape));
      ("weights", Json.List (Array.to_list (Array.map (fun w -> Json.Num w) t.weights)));
      ( "edges",
        Json.List
          (List.map
             (fun (a, b) -> Json.List [ Json.Num (float_of_int a); Json.Num (float_of_int b) ])
             t.edges) );
      ("procs", Json.Num (float_of_int t.procs));
      ("slack", Json.Num t.slack);
      ("deadline", Json.Num (deadline t));
      ("levels", Json.List (Array.to_list (Array.map (fun f -> Json.Num f) t.levels)));
    ]
