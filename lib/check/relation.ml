module Problem = Es_lp.Problem

type outcome = Pass | Skip of string | Fail of string

type t = {
  name : string;
  descr : string;
  shapes : Gen.shape list;
  run : Gen.inst -> outcome;
}

(* All numeric comparisons are relative to the data magnitude, floored
   at 1 so that near-zero quantities degrade to an absolute test. *)
let scale a b = Float.max 1. (Float.max (Float.abs a) (Float.abs b))
let close ~rtol a b = Float.abs (a -. b) <= rtol *. scale a b
let le_tol ~rtol a b = a <= b +. (rtol *. scale a b)

let feasible t = t.Gen.slack >= 1.

let rec first_some f i n =
  if i >= n then None
  else match f i with Some _ as s -> s | None -> first_some f (i + 1) n

let combine outcomes =
  let is_fail = function Fail _ -> true | Pass | Skip _ -> false in
  let is_skip = function Skip _ -> true | Pass | Fail _ -> false in
  match List.find_opt is_fail outcomes with
  | Some f -> f
  | None -> (
    match List.find_opt is_skip outcomes with Some s -> s | None -> Pass)

let edge_cmp (a, b) (c, d) =
  if Int.compare a c <> 0 then Int.compare a c else Int.compare b d

let edge_set_is edges expected =
  List.equal
    (fun (a, b) (c, d) -> a = c && b = d)
    (List.sort_uniq edge_cmp edges)
    (List.sort_uniq edge_cmp expected)

let is_chain n edges = edge_set_is edges (List.init (max 0 (n - 1)) (fun i -> (i, i + 1)))
let is_fork n edges = edge_set_is edges (List.init (max 0 (n - 1)) (fun i -> (0, i + 1)))

(* ---- lp-cert ------------------------------------------------------- *)

(* The VDD LP solved twice — two-phase from scratch, and from
   [Bicrit_vdd.crash_basis] as every answer the solvers serve is —
   must give the same outcome class, optima within rtol 1e-8, and a
   valid primal-dual certificate for each optimum. *)
let run_lp_cert t =
  let mapping = Gen.mapping t in
  let deadline = Gen.deadline t in
  let levels = t.Gen.levels in
  let lp = Bicrit_vdd.lp ~deadline ~levels mapping in
  let certify path s =
    match Lp_cert.certify_problem lp s with
    | Lp_cert.Certified _ -> Pass
    | Lp_cert.Rejected _ as v -> Fail (Printf.sprintf "%s: %s" path (Lp_cert.describe v))
  in
  let cold = Problem.solve lp in
  let crashed, _ = Problem.solve_warm ~basis:(Bicrit_vdd.crash_basis ~levels mapping) lp in
  match (cold, crashed) with
  | Problem.Solution c, Problem.Solution w ->
    let ec = Problem.objective c and ew = Problem.objective w in
    if not (close ~rtol:1e-8 ec ew) then
      Fail (Printf.sprintf "two-phase objective %.12g vs crash-started %.12g" ec ew)
    else combine [ certify "two-phase" c; certify "crash-started" w ]
  | Problem.Infeasible, Problem.Infeasible ->
    if feasible t then
      Fail
        (Printf.sprintf "LP infeasible but all-fmax meets the deadline (slack %g)" t.Gen.slack)
    else Pass
  | Problem.Unbounded, _ | _, Problem.Unbounded ->
    Fail "VDD LP reported unbounded; energy is bounded below by 0"
  | Problem.Solution _, Problem.Infeasible ->
    Fail "two-phase solve feasible but crash-started solve claims infeasible"
  | Problem.Infeasible, Problem.Solution _ ->
    Fail "crash-started solve feasible but two-phase claims infeasible"

(* ---- lp-warm ------------------------------------------------------- *)

(* Warm-started re-optimisation must be indistinguishable from cold
   solving: sweep the VDD LP over a handful of deadlines, re-solving
   one solver ([Es_lp.Revised.resolve]) at the LP rebuilt at each
   deadline, and demand (a) the same outcome class as an independent
   cold solve, (b) objectives within rtol 1e-8, and (c) that every warm
   optimum still carries a valid primal-dual certificate against the
   raw LP statement.  (d) [Bicrit_vdd.energy_sweep], which builds the
   LP once and restates only its rhs, must return bit for bit what the
   chain of rebuilt LPs returns at every deadline; each re-solve also
   asserts that the rebuilt LP has the columns of the first (it raises
   [Invalid_argument] otherwise).  Like the sweep, the chain visits the
   deadlines loosest first (a stable sort, so equal deadlines keep
   their order) and starts its solver at [Bicrit_vdd.crash_basis];
   verdicts and energies stay in input order. *)
let run_lp_warm t =
  let mapping = Gen.mapping t in
  let levels = t.Gen.levels in
  let base = Gen.deadline t in
  let deadlines = Array.map (fun s -> s *. base) [| 1.; 1.3; 0.9; 1.8 |] in
  let crash = Bicrit_vdd.crash_basis ~levels mapping in
  let solver = ref None in
  let chained = Array.make (Array.length deadlines) None in
  let verdicts = Array.make (Array.length deadlines) Pass in
  let order = Array.init (Array.length deadlines) Fun.id in
  Array.stable_sort (fun i j -> Float.compare deadlines.(j) deadlines.(i)) order;
  let check_at i =
    let deadline = deadlines.(i) in
    let lp = Bicrit_vdd.lp ~deadline ~levels mapping in
    let sp = Problem.to_sparse lp in
    let cold = Problem.solve lp in
    let s =
      match !solver with
      | Some s -> s
      | None ->
        let s = Es_lp.Revised.start crash sp in
        solver := Some s;
        s
    in
    let warm, _ = Problem.resolve s sp in
    (match warm with
    | Problem.Solution w -> chained.(i) <- Some (Problem.objective w)
    | Problem.Infeasible | Problem.Unbounded -> ());
    match (cold, warm) with
    | Problem.Infeasible, Problem.Infeasible -> Pass
    | Problem.Unbounded, _ | _, Problem.Unbounded ->
      Fail "VDD LP reported unbounded; energy is bounded below by 0"
    | Problem.Solution c, Problem.Solution w -> (
      let ec = Problem.objective c and ew = Problem.objective w in
      if not (close ~rtol:1e-8 ec ew) then
        Fail (Printf.sprintf "D=%g: cold objective %.12g vs warm %.12g" deadline ec ew)
      else
        match Lp_cert.certify_problem lp w with
        | Lp_cert.Certified _ -> Pass
        | Lp_cert.Rejected _ as v ->
          Fail (Printf.sprintf "D=%g: warm optimum rejected: %s" deadline (Lp_cert.describe v)))
    | Problem.Solution _, Problem.Infeasible ->
      Fail (Printf.sprintf "D=%g: cold feasible but warm-started solve claims infeasible" deadline)
    | Problem.Infeasible, Problem.Solution _ ->
      Fail (Printf.sprintf "D=%g: warm-started solve feasible but cold claims infeasible" deadline)
  in
  Array.iter (fun i -> verdicts.(i) <- check_at i) order;
  let swept = Bicrit_vdd.energy_sweep ~warm:true ~deadlines ~levels mapping in
  let show = function None -> "infeasible" | Some e -> Printf.sprintf "%h" e in
  let same_as_chain i deadline =
    match (chained.(i), swept.(i)) with
    | None, None -> Pass
    | Some c, Some s when Int64.equal (Int64.bits_of_float c) (Int64.bits_of_float s) -> Pass
    | c, s ->
      Fail
        (Printf.sprintf "D=%g: energy_sweep %s vs chained resolve %s" deadline (show s)
           (show c))
  in
  combine (Array.to_list verdicts @ Array.to_list (Array.mapi same_as_chain deadlines))

(* ---- kkt ----------------------------------------------------------- *)

let run_kkt t =
  let mapping = Gen.mapping t in
  let deadline = Gen.deadline t in
  let n = Array.length t.Gen.weights in
  let lo = Array.make n (Gen.fmin t) in
  let hi = Array.make n (Gen.fmax t) in
  match Bicrit_continuous.solve_general ~lo ~hi ~deadline mapping with
  | Some r -> (
    match Kkt.check_general ~deadline ~lo ~hi mapping r with
    | Kkt.Ok -> Pass
    | Kkt.Violation msg -> Fail ("KKT: " ^ msg))
  | None ->
    if feasible t then
      Fail (Printf.sprintf "solver claims infeasible at slack %g >= 1" t.Gen.slack)
    else Pass

(* ---- deadline-scaling ---------------------------------------------- *)

(* Generous uniform speed cap: high enough that no clamp is ever active
   at either deadline, so the pure 1/D (speed) and 1/D² (energy)
   scaling laws apply exactly. *)
let generous_hi mapping ~deadline =
  100. *. List_sched.makespan_at_speed mapping ~f:1. /. deadline

let run_deadline_scaling t =
  if not (feasible t) then Skip "deliberately infeasible instance"
  else begin
    let mapping = Gen.mapping t in
    let d1 = Gen.deadline t in
    let n = Array.length t.Gen.weights in
    let hi = Array.make n (generous_hi mapping ~deadline:d1) in
    match
      ( Bicrit_continuous.solve_general ~hi ~deadline:d1 mapping,
        Bicrit_continuous.solve_general ~hi ~deadline:(2. *. d1) mapping )
    with
    | Some r1, Some r2 -> (
      let mismatch =
        first_some
          (fun i ->
            let f1 = r1.Bicrit_continuous.speeds.(i) in
            let f2 = r2.Bicrit_continuous.speeds.(i) in
            if close ~rtol:1e-3 (f1 /. 2.) f2 then None
            else
              Some
                (Printf.sprintf "task %d: f(D)=%g, f(2D)=%g, expected f(D)/2=%g" i f1 f2
                   (f1 /. 2.)))
          0 n
      in
      match mismatch with
      | Some msg -> Fail msg
      | None ->
        let e1 = r1.Bicrit_continuous.energy and e2 = r2.Bicrit_continuous.energy in
        if close ~rtol:1e-3 (e1 /. 4.) e2 then Pass
        else Fail (Printf.sprintf "E(2D)=%g, expected E(D)/4=%g" e2 (e1 /. 4.)))
    | None, _ -> Fail "solver infeasible at D despite a generous speed cap"
    | _, None -> Fail "solver infeasible at 2D despite a generous speed cap"
  end

(* ---- work-scaling -------------------------------------------------- *)

(* Same processor assignment for the scaled instance: rebuilding the
   list schedule would be equivalent under uniform scaling, but pinning
   the mapping keeps the relation about the solver, not the scheduler. *)
let same_mapping_on mapping d2 =
  let p = Mapping.p mapping in
  Mapping.make ~p d2 ~order:(Array.init p (Mapping.order mapping))

let run_work_scaling t =
  if not (feasible t) then Skip "deliberately infeasible instance"
  else begin
    let c = 2. in
    let mapping = Gen.mapping t in
    let t2 = { t with Gen.weights = Array.map (fun w -> c *. w) t.Gen.weights } in
    let mapping2 = same_mapping_on mapping (Gen.dag t2) in
    let d = Gen.deadline t in
    let n = Array.length t.Gen.weights in
    let hi = Array.make n (c *. generous_hi mapping ~deadline:d) in
    match
      ( Bicrit_continuous.solve_general ~hi ~deadline:d mapping,
        Bicrit_continuous.solve_general ~hi ~deadline:d mapping2 )
    with
    | Some r1, Some r2 -> (
      let mismatch =
        first_some
          (fun i ->
            let f1 = r1.Bicrit_continuous.speeds.(i) in
            let f2 = r2.Bicrit_continuous.speeds.(i) in
            if close ~rtol:1e-3 (c *. f1) f2 then None
            else
              Some
                (Printf.sprintf "task %d: f(w)=%g, f(%gw)=%g, expected %g" i f1 c f2 (c *. f1)))
          0 n
      in
      match mismatch with
      | Some msg -> Fail msg
      | None ->
        let e1 = r1.Bicrit_continuous.energy and e2 = r2.Bicrit_continuous.energy in
        if close ~rtol:1e-3 (c *. c *. c *. e1) e2 then Pass
        else Fail (Printf.sprintf "E(%gw)=%g, expected c³·E(w)=%g" c e2 (c *. c *. c *. e1)))
    | None, _ -> Fail "solver infeasible on the base instance despite a generous speed cap"
    | _, None -> Fail "solver infeasible on the scaled instance despite a generous speed cap"
  end

(* ---- model-dominance ----------------------------------------------- *)

let assignments_of t =
  let m = Array.length t.Gen.levels and n = Array.length t.Gen.weights in
  float_of_int m ** float_of_int n

let coarse_subset levels =
  (* every other level, always keeping the top one so the feasibility
     frontier (all-fmax) is shared with the full grid *)
  let m = Array.length levels in
  let idx = List.init m (fun i -> i) in
  let keep = List.filter (fun i -> i mod 2 = 0 || i = m - 1) idx in
  Array.of_list (List.map (fun i -> levels.(i)) keep)

let run_model_dominance t =
  if assignments_of t > 60_000. then Skip "too many assignments for the exact DISCRETE solver"
  else begin
    let mapping = Gen.mapping t in
    let deadline = Gen.deadline t in
    let levels = t.Gen.levels in
    let coarse = coarse_subset levels in
    let n = Array.length t.Gen.weights in
    let lo = Array.make n (Gen.fmin t) and hi = Array.make n (Gen.fmax t) in
    let e_cont =
      Option.map
        (fun r -> r.Bicrit_continuous.energy)
        (Bicrit_continuous.solve_general ~lo ~hi ~deadline mapping)
    in
    let e_vdd = Bicrit_vdd.energy ~deadline ~levels mapping in
    match
      ( (try `Done (Bicrit_discrete.solve_exact ~deadline ~levels mapping) with
        | Failure _ -> `Limit),
        try `Done (Bicrit_discrete.solve_exact ~deadline ~levels:coarse mapping) with
        | Failure _ -> `Limit )
    with
    | `Limit, _ | _, `Limit -> Skip "exact DISCRETE solver hit its node limit"
    | `Done incr, `Done disc -> (
      match (e_cont, e_vdd, incr, disc) with
      | None, None, None, None ->
        if feasible t then Fail "every model claims infeasible on a feasible instance" else Pass
      | Some ec, Some ev, Some ei, Some ed ->
        let ei = ei.Bicrit_discrete.energy and ed = ed.Bicrit_discrete.energy in
        if not (le_tol ~rtol:1e-6 ec ev) then
          Fail (Printf.sprintf "E_CONT=%g exceeds E_VDD=%g" ec ev)
        else if not (le_tol ~rtol:1e-6 ev ei) then
          Fail (Printf.sprintf "E_VDD=%g exceeds E_INCR=%g" ev ei)
        else if not (le_tol ~rtol:1e-6 ei ed) then
          Fail (Printf.sprintf "E_INCR=%g (full grid) exceeds E_DISCRETE=%g (coarse grid)" ei ed)
        else begin
          (* the round-up approximation can never beat the exact optimum *)
          match Bicrit_discrete.round_up ~deadline ~levels mapping with
          | None -> Fail "round-up approximation infeasible on a feasible instance"
          | Some sched ->
            let e_ru = Schedule.energy sched in
            if le_tol ~rtol:1e-6 ei e_ru then Pass
            else Fail (Printf.sprintf "round-up energy %g beats the exact optimum %g" e_ru ei)
        end
      | _ ->
        let claim name = function Some _ -> name ^ ":feasible" | None -> name ^ ":infeasible" in
        Fail
          (String.concat ", "
             [
               claim "cont" e_cont;
               claim "vdd" e_vdd;
               claim "incr" (Option.map (fun e -> e.Bicrit_discrete.energy) incr);
               claim "disc" (Option.map (fun e -> e.Bicrit_discrete.energy) disc);
             ]))
  end

(* ---- closed-form-vs-barrier ----------------------------------------- *)

let run_closed_form t =
  let deadline = Gen.deadline t in
  let weights = t.Gen.weights in
  let n = Array.length weights in
  match t.Gen.shape with
  | Gen.Chain when is_chain n t.Gen.edges -> (
    let fmin = Gen.fmin t and fmax = Gen.fmax t in
    let mapping = Mapping.single_processor (Gen.dag t) in
    let cf = Bicrit_continuous.chain ~weights ~deadline ~fmin ~fmax in
    let lo = Array.make n fmin and hi = Array.make n fmax in
    let nm = Bicrit_continuous.solve_general ~lo ~hi ~deadline mapping in
    match (cf, nm) with
    | None, None -> if feasible t then Fail "both solvers claim an infeasible chain" else Pass
    | Some a, Some b -> (
      match Kkt.check_chain ~weights ~deadline ~fmin ~fmax a with
      | Kkt.Violation msg -> Fail ("chain closed form fails its own KKT check: " ^ msg)
      | Kkt.Ok ->
        if close ~rtol:1e-4 a.Bicrit_continuous.energy b.Bicrit_continuous.energy then Pass
        else
          Fail
            (Printf.sprintf "chain closed form %g vs barrier %g" a.Bicrit_continuous.energy
               b.Bicrit_continuous.energy))
    | Some _, None -> Fail "closed form feasible, barrier infeasible"
    | None, Some _ -> Fail "barrier feasible, closed form infeasible")
  | Gen.Fork when is_fork n t.Gen.edges && n >= 2 -> (
    let fmax = Gen.fmax t in
    let root = weights.(0) in
    let children = Array.sub weights 1 (n - 1) in
    let mapping = Mapping.one_task_per_proc (Gen.dag t) in
    let cf = Bicrit_continuous.fork_speeds ~root ~children ~deadline ~fmax in
    let hi = Array.make n fmax in
    let nm = Bicrit_continuous.solve_general ~hi ~deadline mapping in
    match (cf, nm) with
    | None, None -> if feasible t then Fail "both solvers claim an infeasible fork" else Pass
    | Some a, Some b ->
      if close ~rtol:1e-4 a.Bicrit_continuous.energy b.Bicrit_continuous.energy then Pass
      else
        Fail
          (Printf.sprintf "fork closed form %g vs barrier %g" a.Bicrit_continuous.energy
             b.Bicrit_continuous.energy)
    | Some _, None -> Fail "fork closed form feasible, barrier infeasible"
    | None, Some _ -> Fail "barrier feasible, fork closed form infeasible")
  | Gen.Sp -> (
    match Sp.of_dag (Gen.dag t) with
    | None -> Skip "not series-parallel (structure changed by shrinking)"
    | Some sp -> (
      (* the SP closed form assumes no speed bound binds: give the
         barrier solver comfortable headroom above the closed-form
         speeds instead of the instance's fmax *)
      let cf = Bicrit_continuous.sp_speeds sp ~deadline in
      let top = Array.fold_left Float.max 1e-6 cf.Bicrit_continuous.speeds in
      let hi = Array.make n (10. *. top) in
      let mapping = Mapping.one_task_per_proc (Gen.dag t) in
      match Bicrit_continuous.solve_general ~hi ~deadline mapping with
      | None -> Fail "barrier infeasible with headroom above the SP closed-form speeds"
      | Some b ->
        if close ~rtol:1e-4 cf.Bicrit_continuous.energy b.Bicrit_continuous.energy then Pass
        else
          Fail
            (Printf.sprintf "SP closed form %g vs barrier %g" cf.Bicrit_continuous.energy
               b.Bicrit_continuous.energy)))
  | _ -> Skip "no closed form for this structure"

(* ---- simplex-vs-brute ----------------------------------------------- *)

let run_simplex_vs_brute t =
  (* Serialise everything onto one processor: whatever the DAG, the
     constraint graph is then a chain, whose VDD optimum has the hull
     closed form W·H(D/W). *)
  let mapping = Mapping.single_processor (Gen.dag t) in
  let deadline = t.Gen.slack *. List_sched.makespan_at_speed mapping ~f:(Gen.fmax t) in
  let levels = t.Gen.levels in
  let e_lp = Bicrit_vdd.energy ~deadline ~levels mapping in
  let e_cf = Brute.vdd_chain_optimum ~levels ~weights:t.Gen.weights ~deadline in
  match (e_lp, e_cf) with
  | None, None -> Pass
  | Some a, Some b ->
    if close ~rtol:1e-6 a b then Pass
    else Fail (Printf.sprintf "simplex LP optimum %g vs hull closed form %g" a b)
  | Some a, None -> Fail (Printf.sprintf "LP found E=%g but the hull says infeasible" a)
  | None, Some b -> Fail (Printf.sprintf "hull optimum %g exists but the LP is infeasible" b)

(* ---- discrete-vs-brute ---------------------------------------------- *)

let run_discrete_vs_brute t =
  if assignments_of t > 60_000. then Skip "too many assignments to enumerate"
  else begin
    let mapping = Gen.mapping t in
    let deadline = Gen.deadline t in
    let levels = t.Gen.levels in
    match
      try `Done (Bicrit_discrete.solve_exact ~deadline ~levels mapping) with
      | Failure _ -> `Limit
    with
    | `Limit -> Skip "exact solver hit its node limit"
    | `Done ex -> (
      let brute = Brute.discrete_optimum ~levels ~deadline mapping in
      match (ex, brute) with
      | None, None -> Pass
      | Some e, Some b ->
        if close ~rtol:1e-7 e.Bicrit_discrete.energy b then Pass
        else
          Fail
            (Printf.sprintf "branch-and-bound %g vs exhaustive enumeration %g"
               e.Bicrit_discrete.energy b)
      | Some e, None ->
        Fail
          (Printf.sprintf "branch-and-bound found E=%g but enumeration says infeasible"
             e.Bicrit_discrete.energy)
      | None, Some b ->
        Fail (Printf.sprintf "enumeration found E=%g but branch-and-bound says infeasible" b))
  end

(* ---- feasibility ---------------------------------------------------- *)

let run_feasibility t =
  let mapping = Gen.mapping t in
  let deadline = Gen.deadline t in
  let levels = t.Gen.levels in
  let fmin = Gen.fmin t and fmax = Gen.fmax t and delta = Gen.delta t in
  let dag = Gen.dag t in
  let agree name model result =
    match result with
    | None ->
      if feasible t then Fail (name ^ " returned no schedule on a feasible instance") else Pass
    | Some sched -> (
      let viols = Validate.check ~deadline ~model sched in
      let empty = match viols with [] -> true | _ :: _ -> false in
      if Validate.is_feasible ~deadline ~model sched <> empty then
        Fail (name ^ ": Validate.check and Validate.is_feasible disagree")
      else
        match viols with
        | [] -> Pass
        | v :: _ -> Fail (name ^ ": " ^ Validate.explain dag v))
  in
  combine
    [
      agree "continuous"
        (Speed.continuous ~fmin ~fmax)
        (Bicrit_continuous.solve ~deadline ~fmin ~fmax mapping);
      agree "vdd" (Speed.vdd_hopping levels) (Bicrit_vdd.solve ~deadline ~levels mapping);
      agree "round-up" (Speed.discrete levels)
        (Bicrit_discrete.round_up ~deadline ~levels mapping);
      agree "incremental"
        (Speed.incremental ~fmin ~fmax ~delta)
        (Bicrit_incremental.approximate ~deadline ~fmin ~fmax ~delta mapping);
    ]

(* ---- registry ------------------------------------------------------- *)

let all =
  [
    {
      name = "lp-cert";
      descr = "every simplex optimum of the VDD LP carries a valid primal-dual certificate";
      shapes = Gen.all_shapes;
      run = run_lp_cert;
    };
    {
      name = "lp-warm";
      descr = "warm-started LP re-optimisation matches cold solves and stays certified";
      shapes = Gen.all_shapes;
      run = run_lp_warm;
    };
    {
      name = "kkt";
      descr = "every continuous barrier result satisfies the KKT optimality conditions";
      shapes = Gen.all_shapes;
      run = run_kkt;
    };
    {
      name = "deadline-scaling";
      descr = "doubling the deadline halves continuous speeds and quarters the energy";
      shapes = Gen.all_shapes;
      run = run_deadline_scaling;
    };
    {
      name = "work-scaling";
      descr = "doubling all weights doubles continuous speeds and multiplies energy by 8";
      shapes = Gen.all_shapes;
      run = run_work_scaling;
    };
    {
      name = "model-dominance";
      descr = "E_CONT <= E_VDD <= E_INCR <= E_DISCRETE on a shared speed grid";
      shapes = [ Gen.Chain; Gen.Fork; Gen.Join; Gen.Layered ];
      run = run_model_dominance;
    };
    {
      name = "closed-form-vs-barrier";
      descr = "the paper's chain/fork/SP closed forms agree with the barrier solver";
      shapes = [ Gen.Chain; Gen.Fork; Gen.Sp ];
      run = run_closed_form;
    };
    {
      name = "simplex-vs-brute";
      descr = "single-processor VDD LP optimum equals the hull closed form W·H(D/W)";
      shapes = Gen.all_shapes;
      run = run_simplex_vs_brute;
    };
    {
      name = "discrete-vs-brute";
      descr = "branch-and-bound DISCRETE optima match exhaustive enumeration";
      shapes = [ Gen.Chain; Gen.Fork; Gen.Join; Gen.Layered ];
      run = run_discrete_vs_brute;
    };
    {
      name = "feasibility";
      descr = "every solver schedule passes Validate.check under its own model";
      shapes = Gen.all_shapes;
      run = run_feasibility;
    };
  ]

let find name = List.find_opt (fun r -> String.equal r.name name) all
let names () = List.map (fun r -> r.name) all
