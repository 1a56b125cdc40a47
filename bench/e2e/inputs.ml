module Protocol = Es_serve.Protocol
module Json = Es_obs.Obs_json
module Rng = Es_util.Rng

type kind =
  | Continuous
  | Vdd
  | Discrete_bb
  | Discrete_round
  | Incremental
  | Continuous_rel
  | Vdd_rel

let engine_class model rel =
  match (model, rel) with
  | _, Some _ -> "tricrit"
  | Speed.Continuous _, None -> "continuous"
  | Speed.Vdd_hopping _, None -> "vdd"
  | Speed.Discrete _, None -> "discrete"
  | Speed.Incremental _, None -> "incremental"

let engine_classes = [ "continuous"; "vdd"; "discrete"; "incremental"; "tricrit" ]

type shape = Layered | Fork_join | Pipeline | Out_tree | Erdos_renyi

let shapes = [| Layered; Fork_join; Pipeline; Out_tree; Erdos_renyi |]

(* The first [n] tasks of a DAG whose ids follow a topological order:
   an induced subgraph, so still a DAG. *)
let prefix dag n =
  Dag.make ?labels:None
    ~weights:(Array.sub (Dag.weights dag) 0 n)
    ~edges:(List.filter (fun (a, b) -> a < n && b < n) (Dag.edges dag))

(* A layered DAG of exactly [n] tasks: layers of 1 to 6 tasks, each
   task with at least one predecessor in the layer before. *)
let layered rng ~n ~wlo ~whi =
  prefix (Generators.random_layered rng ~layers:n ~width:6 ~density:0.3 ~wlo ~whi) n

(* Pipelines come in stages of 5 tasks; every other shape has exactly
   [n] tasks, so a seed changes the graphs but hardly the amount of
   work a class of requests costs. *)
let dag_of_shape rng shape ~n =
  let wlo = 0.5 and whi = 4. in
  match shape with
  | Layered -> layered rng ~n ~wlo ~whi
  | Fork_join -> Generators.fork_join rng ~n:(max 1 (n - 2)) ~wlo ~whi
  | Pipeline -> Generators.pipeline rng ~stages:(max 1 (n / 5)) ~width:3 ~wlo ~whi
  | Out_tree -> Generators.out_tree rng ~n ~max_children:3 ~wlo ~whi
  | Erdos_renyi ->
    Generators.random_dag rng ~n ~p:(Float.min 1. (3. /. float_of_int n)) ~wlo ~whi

(* A speed menu of [levels] strictly increasing values from fmin to
   fmax, fmin being [ratio] times fmax (drawn from [0.15, 0.4] when
   not given). *)
let menu ?ratio rng ~levels =
  let fmax = Rng.uniform_in rng 1. 3. in
  let ratio = match ratio with Some r -> r | None -> Rng.uniform_in rng 0.15 0.4 in
  let fmin = fmax *. ratio in
  let step = (fmax -. fmin) /. float_of_int (levels - 1) in
  Array.init levels (fun i ->
      if i = 0 then fmin
      else if i = levels - 1 then fmax
      else fmin +. (step *. (float_of_int i +. Rng.uniform_in rng (-0.4) 0.4)))

let model_of rng kind ~levels =
  let m = menu rng ~levels in
  let fmin = m.(0) and fmax = m.(levels - 1) in
  let model =
    match kind with
    | Continuous | Continuous_rel -> Speed.continuous ~fmin ~fmax
    | Vdd | Vdd_rel -> Speed.vdd_hopping m
    | Discrete_bb | Discrete_round -> Speed.discrete m
    | Incremental ->
      Speed.incremental ~fmin ~fmax ~delta:((fmax -. fmin) /. float_of_int (levels - 1))
  in
  let rel =
    match kind with
    | Continuous_rel | Vdd_rel ->
      Some (Rel.make ~frel:(fmax *. Rng.uniform_in rng 0.75 0.95) ~fmin ~fmax ())
    | Continuous | Vdd | Discrete_bb | Discrete_round | Incremental -> None
  in
  (model, rel)

(* The deadline is [slack] times the makespan of the resolved mapping
   with every task at fmax, so every request is feasible. *)
let with_deadline ~slack (inst : Protocol.instance) =
  let mapping = Protocol.resolve_mapping inst in
  let dmin = List_sched.makespan_at_speed mapping ~f:(Speed.fmax inst.model) in
  { inst with deadline = slack *. dmin }

let instance ?(explicit_mapping = false) rng ~kind ~shape ~n ~procs ~levels ~slack =
  let dag = dag_of_shape rng shape ~n in
  let model, rel = model_of rng kind ~levels in
  let inst =
    {
      Protocol.weights = Dag.weights dag;
      edges = Dag.edges dag;
      procs;
      order = None;
      model;
      deadline = 1.;
      rel;
    }
  in
  let inst =
    if explicit_mapping then { inst with order = Some (Protocol.resolve_order inst) }
    else inst
  in
  with_deadline ~slack inst

(* ---- wire rendering ---------------------------------------------- *)

let line_of ~id (inst : Protocol.instance) =
  let open Json in
  let num x = Num x in
  let int i = Num (float_of_int i) in
  let nums xs = List (Array.to_list (Array.map num xs)) in
  let model =
    match inst.model with
    | Speed.Continuous { fmin; fmax } ->
      [ ("kind", Str "continuous"); ("fmin", num fmin); ("fmax", num fmax) ]
    | Speed.Discrete levels -> [ ("kind", Str "discrete"); ("levels", nums levels) ]
    | Speed.Vdd_hopping levels -> [ ("kind", Str "vdd"); ("levels", nums levels) ]
    | Speed.Incremental { fmin; fmax; delta } ->
      [
        ("kind", Str "incremental");
        ("fmin", num fmin);
        ("fmax", num fmax);
        ("delta", num delta);
      ]
  in
  let mapping =
    match inst.order with
    | None -> []
    | Some order ->
      [
        ( "mapping",
          List (Array.to_list (Array.map (fun ts -> List (List.map int ts)) order)) );
      ]
  in
  let rel =
    match inst.rel with
    | None -> []
    | Some r ->
      [
        ( "rel",
          Obj
            [
              ("lambda0", num r.Rel.lambda0);
              ("sensitivity", num r.Rel.sensitivity);
              ("frel", num r.Rel.frel);
            ] );
      ]
  in
  to_compact_string
    (Obj
       ([
          ("id", int id);
          ("tasks", nums inst.weights);
          ("edges", List (List.map (fun (a, b) -> List [ int a; int b ]) inst.edges));
          ("procs", int inst.procs);
        ]
       @ mapping
       @ [ ("model", Obj model); ("deadline", num inst.deadline) ]
       @ rel))

(* ---- serve-cold --------------------------------------------------- *)

type request = { id : int; line : string; inst : Protocol.instance; kind : kind }

(* Share (percent) and task-count range of each request class. *)
let cold_mix =
  [
    (Continuous, 35, (6, 16));
    (Vdd, 30, (10, 40));
    (Discrete_bb, 8, (6, 9));
    (Discrete_round, 7, (15, 18));
    (Incremental, 10, (8, 14));
    (Continuous_rel, 6, (6, 12));
    (Vdd_rel, 4, (6, 8));
  ]

(* Largest-remainder apportionment of [total] over integer percent
   shares, so every seed gets the same number of requests per class. *)
let apportion total shares =
  let exact = List.map (fun s -> float_of_int (total * s) /. 100.) shares in
  let floors = List.map int_of_float exact in
  let left = total - List.fold_left ( + ) 0 floors in
  let order =
    List.sort
      (fun (i, a) (j, b) ->
        match Float.compare b a with 0 -> Int.compare i j | c -> c)
      (List.mapi (fun i (x, f) -> (i, x -. float_of_int f)) (List.combine exact floors))
  in
  let bonus = Array.make (List.length shares) 0 in
  List.iteri (fun rank (i, _) -> if rank < left then bonus.(i) <- 1) order;
  List.mapi (fun i f -> f + bonus.(i)) floors

(* Member [i] of an evenly spread sequence in [0, 1): the fractional
   part of [u + i·step] for an irrational [step]. *)
let spread ~u ~step i = Float.rem (u +. (float_of_int i *. step)) 1.

let serve_cold ~seed ~blocks ~per_block =
  let rng = Rng.create ~seed in
  let counts = apportion per_block (List.map (fun (_, s, _) -> s) cold_mix) in
  (* Every block holds the same number of requests of each class, with
     task counts spread evenly over the class's range and shapes
     cycled; processor counts, menu sizes and slack follow three evenly
     spread sequences.  These specs and their order come from a fixed
     stream, the same under every seed, which draws only the graphs,
     task weights and speed menus.  With the specs drawn from the seed
     too, the quartile spread over ten seeds of a run's throughput and
     median latency was 6-11%, against 6-7% with them fixed. *)
  let fixed = Rng.create ~seed:0 in
  let classes =
    List.map
      (fun c ->
        ( c,
          Rng.int fixed (Array.length shapes),
          Rng.float fixed 1.,
          Rng.float fixed 1.,
          Rng.float fixed 1. ))
      cold_mix
  in
  Array.init blocks (fun b ->
      let specs =
        List.concat
          (List.map2
             (fun ((kind, _, (lo, hi)), offset, u1, u2, u3) count ->
               List.init count (fun k ->
                   let i = (b * count) + k in
                   ( kind,
                     lo + (k * (hi - lo + 1) / max 1 count),
                     shapes.((i + offset) mod Array.length shapes),
                     1 + int_of_float (8. *. spread ~u:u1 ~step:0.6180339887 i),
                     3 + int_of_float (6. *. spread ~u:u2 ~step:0.4142135624 i),
                     1.1 +. (1.4 *. spread ~u:u3 ~step:0.7320508076 i) )))
             classes counts)
      in
      let specs = Array.of_list specs in
      Rng.shuffle fixed specs;
      Array.mapi
        (fun j (kind, n, shape, procs, levels, slack) ->
          let id = (b * per_block) + j in
          let inst = instance rng ~kind ~shape ~n ~procs ~levels ~slack in
          { id; line = line_of ~id inst; inst; kind })
        specs)

(* ---- serve-hot ---------------------------------------------------- *)

type variant =
  | Repeat
  | Relabel of { sigma : int array }  (** new task [j] is base task [sigma.(j)] *)
  | Rescale of { c : float; d : float }  (** work ×c, deadline ×d *)

type hot_request = { hid : int; hline : string; base : int; variant : variant }

type hot = { bases : request array; trace : hot_request array }

let relabel ~sigma ~rot (inst : Protocol.instance) =
  let n = Array.length inst.weights in
  let inv = Array.make n 0 in
  Array.iteri (fun j old -> inv.(old) <- j) sigma;
  let order =
    Option.map
      (fun order ->
        let p = Array.length order in
        Array.init p (fun q -> List.map (fun t -> inv.(t)) order.((q + rot) mod p)))
      inst.order
  in
  {
    inst with
    weights = Array.init n (fun j -> inst.weights.(sigma.(j)));
    edges = List.map (fun (a, b) -> (inv.(a), inv.(b))) inst.edges;
    order;
  }

(* Zipf-like popularity: index [⌊u^2.5·k⌋] favours the first bases. *)
let popular rng k = min (k - 1) (int_of_float (Float.pow (Rng.float rng 1.) 2.5 *. float_of_int k))

let serve_hot ~seed ~bases ~continuous_n ~vdd_n ~requests =
  let rng = Rng.create ~seed in
  (* Even bases are CONTINUOUS, odd ones VDD-HOPPING.  A base's task
     count depends on its popularity rank only, so the popular bases
     cost the same under every seed. *)
  let bases =
    Array.init bases (fun id ->
        let kind, (lo, hi) = if id mod 2 = 0 then (Continuous, continuous_n) else (Vdd, vdd_n) in
        let inst =
          instance ~explicit_mapping:true rng ~kind
            ~shape:shapes.(id / 2 mod Array.length shapes)
            ~n:(lo + int_of_float (float_of_int (hi - lo + 1) *. spread ~u:0. ~step:0.6180339887 (id / 2)))
            ~procs:(1 + Rng.int rng 8) ~levels:(3 + Rng.int rng 6)
            ~slack:(Rng.uniform_in rng 1.1 2.5)
        in
        let inst =
          match kind with
          | Continuous ->
            (* bounds far outside every optimal speed keep cached optima
               interior, so rescaled variants re-validate; the deadline
               stays tied to the menu's fmax *)
            let f = Speed.fmax inst.model in
            { inst with model = Speed.continuous ~fmin:(f /. 50.) ~fmax:(4. *. f) }
          | Vdd | Discrete_bb | Discrete_round | Incremental | Continuous_rel | Vdd_rel -> inst
        in
        { id; line = line_of ~id inst; inst; kind })
  in
  let k = Array.length bases in
  let counts = apportion requests [ 40; 35; 25 ] in
  let tags =
    Array.of_list
      (List.concat (List.mapi (fun tag c -> List.init c (fun _ -> tag)) counts))
  in
  Rng.shuffle rng tags;
  let trace =
    Array.mapi
      (fun i tag ->
        let hid = k + i in
        match tag with
        | 0 ->
          let base = popular rng k in
          { hid = base; hline = bases.(base).line; base; variant = Repeat }
        | 1 ->
          let base = popular rng k in
          let inst = bases.(base).inst in
          let sigma = Array.init (Array.length inst.weights) Fun.id in
          Rng.shuffle rng sigma;
          let procs = match inst.order with Some o -> Array.length o | None -> 1 in
          let inst = relabel ~sigma ~rot:(Rng.int rng procs) inst in
          { hid; hline = line_of ~id:hid inst; base; variant = Relabel { sigma } }
        | _ ->
          let base = 2 * popular rng ((k + 1) / 2) in
          let inst = bases.(base).inst in
          (* a power of two scales every weight exactly, so the
             work-normalised cache key is bit-identical to the base's *)
          let c = Float.ldexp 1. (Rng.choice rng [| -2; -1; 1; 2 |]) in
          let d = c *. Rng.uniform_in rng 0.95 1.05 in
          let inst =
            {
              inst with
              weights = Array.map (fun w -> w *. c) inst.weights;
              deadline = inst.deadline *. d;
            }
          in
          { hid; hline = line_of ~id:hid inst; base; variant = Rescale { c; d } })
      tags
  in
  { bases; trace }

(* ---- pareto-sweep ------------------------------------------------- *)

type front_input = {
  mapping : Mapping.t;
  levels : float array;
  deadlines : float list;
}

let layered_mapping rng ~n ~procs =
  List_sched.schedule (layered rng ~n ~wlo:0.5 ~whi:4.) ~p:procs
    ~priority:List_sched.Bottom_level

let pareto ~seed ~blocks ~sizes ~points =
  let rng = Rng.create ~seed in
  Array.init blocks (fun _ ->
      List.map
        (fun n ->
          let mapping = layered_mapping rng ~n ~procs:4 in
          (* a fixed fmin/fmax ratio fixes the deadline range relative
             to the graph, and with it much of the work of a front:
             over ten seeds, the quartile spread of the median front's
             cost fell from 19% with a drawn ratio to 11% *)
          let levels = menu ~ratio:0.25 rng ~levels:5 in
          let fmin = levels.(0) and fmax = levels.(Array.length levels - 1) in
          let dmin = List_sched.makespan_at_speed mapping ~f:fmax in
          (* up to 90% of the all-fmin makespan, where some task still
             runs above fmin, so energy falls strictly along the front *)
          let span = (0.9 *. fmax /. fmin) -. 1.05 in
          let deadlines =
            List.init points (fun i ->
                dmin *. (1.05 +. (span *. float_of_int i /. float_of_int (max 1 (points - 1)))))
          in
          { mapping; levels; deadlines })
        sizes)

(* ---- solve-large -------------------------------------------------- *)

type large = { name : string; request : Solver.request }

let large ~seed ~blocks ~continuous_tiles ~discrete_tiles ~vdd_tiles ~vdd_lu_tiles ~stencil =
  let rng = Rng.create ~seed in
  let levels = menu (Rng.create ~seed:0) ~levels:6 in
  let continuous = Speed.continuous ~fmin:levels.(0) ~fmax:levels.(Array.length levels - 1) in
  let mapped dag = List_sched.schedule dag ~p:4 ~priority:List_sched.Bottom_level in
  let instances =
    [
      ( Printf.sprintf "continuous-cholesky-%d" continuous_tiles,
        continuous,
        mapped (Generators.cholesky ~n:continuous_tiles) );
      ( Printf.sprintf "discrete-lu-%d" discrete_tiles,
        Speed.discrete levels,
        mapped (Generators.lu ~n:discrete_tiles) );
      ( Printf.sprintf "vdd-cholesky-%d" vdd_tiles,
        Speed.vdd_hopping levels,
        mapped (Generators.cholesky ~n:vdd_tiles) );
      ( Printf.sprintf "vdd-lu-%d" vdd_lu_tiles,
        Speed.vdd_hopping levels,
        mapped (Generators.lu ~n:vdd_lu_tiles) );
      ( Printf.sprintf "vdd-stencil-%dx%d" stencil stencil,
        Speed.vdd_hopping levels,
        mapped (Generators.stencil ~rows:stencil ~cols:stencil) );
    ]
  in
  (* The graphs, task costs and menu are the same in every block and
     under every seed; each block renames the tasks and rotates the
     processors of every mapped instance.  That leaves each optimum
     unchanged but not the solver's path: the barrier's Newton count
     on one graph falls in clusters (about 310 and 385 on 7-tile
     Cholesky) depending on the naming, so a run averages over
     several namings. *)
  let renamed (name, model, mapping) =
    let dag = Mapping.dag mapping in
    let order = Array.init (Mapping.p mapping) (Mapping.order mapping) in
    let sigma = Array.init (Dag.n dag) Fun.id in
    Rng.shuffle rng sigma;
    let mapping =
      Protocol.resolve_mapping
        (relabel ~sigma ~rot:(Rng.int rng (Array.length order))
           {
             Protocol.weights = Dag.weights dag;
             edges = Dag.edges dag;
             procs = Array.length order;
             order = Some order;
             model;
             deadline = 1.;
             rel = None;
           })
    in
    let dmin = List_sched.makespan_at_speed mapping ~f:(Speed.fmax model) in
    { name; request = { Solver.mapping; model; deadline = 1.6 *. dmin; rel = None } }
  in
  Array.init blocks (fun _ -> List.map renamed instances)
