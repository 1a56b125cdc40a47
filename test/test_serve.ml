(* Tests for the serving subsystem (lib/serve): wire-protocol parsing
   and rendering, canonicalization invariance (the qcheck properties
   ISSUE 9 asks for), structural-cache semantics including the
   rescale-hit soundness conditions, and the batching server's
   admission control and determinism. *)

module Protocol = Es_serve.Protocol
module Canon = Es_serve.Canon
module Cache = Es_serve.Cache
module Server = Es_serve.Server
module CGen = Es_check.Gen
module Rng = Es_util.Rng
module Pool = Es_par.Pool

(* --- helpers -------------------------------------------------------- *)

let continuous_instance (inst : CGen.inst) =
  {
    Protocol.weights = inst.CGen.weights;
    edges = inst.CGen.edges;
    procs = inst.CGen.procs;
    order = None;
    model = Speed.continuous ~fmin:(CGen.fmin inst) ~fmax:(CGen.fmax inst);
    deadline = CGen.deadline inst;
    rel = None;
  }

(* Relabel an instance and its resolved order: new task [j] is old
   task [sigma.(j)], and the processor chains are shuffled too (the
   canonical keys must not see either renaming). *)
let relabel ~sigma ~proc_rot (pi : Protocol.instance) order =
  let n = Array.length pi.Protocol.weights in
  let inv = Array.make n 0 in
  Array.iteri (fun nw old -> inv.(old) <- nw) sigma;
  let weights = Array.init n (fun j -> pi.Protocol.weights.(sigma.(j))) in
  let edges = List.map (fun (a, b) -> (inv.(a), inv.(b))) pi.Protocol.edges in
  let p = Array.length order in
  let order' =
    Array.init p (fun q ->
        List.map (fun t -> inv.(t)) order.((q + proc_rot) mod p))
  in
  ({ pi with Protocol.weights; edges }, order')

let permutation rng n =
  let sigma = Array.init n (fun i -> i) in
  Rng.shuffle rng sigma;
  sigma

let solve_line line =
  let srv = Server.create { Server.default_config with Server.batch = 1 } in
  match Server.process_batch srv ~pool:None [ line ] with
  | [ r ] -> r
  | _ -> Alcotest.fail "expected exactly one response"

(* --- protocol ------------------------------------------------------- *)

let chain_line =
  {|{"id":7,"tasks":[1,2,3],"edges":[[0,1],[1,2]],"model":{"kind":"continuous","fmin":0.1,"fmax":5},"deadline":10}|}

let test_parse_roundtrip () =
  match Protocol.parse_line chain_line with
  | Protocol.Malformed m -> Alcotest.fail m
  | Protocol.Request req ->
    Alcotest.(check int) "tasks" 3 (Array.length req.Protocol.inst.Protocol.weights);
    Alcotest.(check int) "edges" 2 (List.length req.Protocol.inst.Protocol.edges);
    Alcotest.(check (float 0.)) "deadline" 10. req.Protocol.inst.Protocol.deadline

let test_parse_rejects () =
  let malformed = function
    | Protocol.Malformed _ -> true
    | Protocol.Request _ -> false
  in
  List.iter
    (fun line ->
      Alcotest.(check bool) ("rejects " ^ line) true (malformed (Protocol.parse_line line)))
    [
      "not json";
      "[1,2]";
      {|{"tasks":[1],"deadline":1}|};
      {|{"tasks":[1],"model":{"kind":"warp"},"deadline":1}|};
      {|{"tasks":[1],"model":{"kind":"continuous","fmin":2,"fmax":1},"deadline":1}|};
      {|{"tasks":[1],"model":{"kind":"continuous","fmin":0.1,"fmax":1},"deadline":1,"procs":0}|};
      {|{"tasks":"x","model":{"kind":"continuous","fmin":0.1,"fmax":1},"deadline":1}|};
    ]

let test_render_is_compact_json () =
  let r = solve_line chain_line in
  (* one line, parseable, and echoing the id *)
  Alcotest.(check bool) "single line" false (String.contains r '\n');
  let j = Es_obs.Obs_json.of_string r in
  (match Es_obs.Obs_json.member "id" j with
  | Some (Es_obs.Obs_json.Num x) -> Alcotest.(check (float 0.)) "id" 7. x
  | _ -> Alcotest.fail "id missing");
  match Es_obs.Obs_json.member "status" j with
  | Some (Es_obs.Obs_json.Str s) -> Alcotest.(check string) "status" "ok" s
  | _ -> Alcotest.fail "status missing"

(* The renderer before solved answers could carry literals: one Json
   tree of [Num] nodes per response, written compact. *)
let reference_render (r : Protocol.response) =
  let open Es_obs.Obs_json in
  let nums xs = List (Array.to_list (Array.map (fun x -> Num x) xs)) in
  let ints xs = List (List.map (fun i -> Num (float_of_int i)) xs) in
  let cache_field =
    match r.Protocol.cache with
    | None -> []
    | Some d -> [ ("cache", Str (Protocol.disposition_name d)) ]
  in
  let self_check_field =
    match r.Protocol.self_check with
    | None -> []
    | Some ok -> [ ("self_check", Str (if ok then "ok" else "fail")) ]
  in
  let fields =
    match r.Protocol.status with
    | Protocol.Solved s ->
      [ ("id", r.Protocol.rid); ("status", Str "ok") ]
      @ cache_field
      @ [
          ("engine", Str s.Protocol.engine);
          ("exact", Bool s.Protocol.exact);
          ("energy", Num s.Protocol.energy);
          ("makespan", Num s.Protocol.makespan);
          ("speeds", nums s.Protocol.speeds);
        ]
      @ (if s.Protocol.reexecuted = [] then [] else [ ("reexecuted", ints s.Protocol.reexecuted) ])
      @ self_check_field
    | Protocol.Infeasible msg ->
      [ ("id", r.Protocol.rid); ("status", Str "infeasible") ] @ cache_field @ [ ("error", Str msg) ]
    | Protocol.Rejected msg -> [ ("id", r.Protocol.rid); ("status", Str "error"); ("error", Str msg) ]
    | Protocol.Shed msg -> [ ("id", r.Protocol.rid); ("status", Str "shed"); ("error", Str msg) ]
    | Protocol.Over_budget { budget_s } ->
      [ ("id", r.Protocol.rid); ("status", Str "over-budget"); ("budget_s", Num budget_s) ]
  in
  to_compact_string (Obj fields)

(* Responses of every status, with doubles of any bit pattern, ids of
   every JSON kind and messages that need escaping; a solved answer
   carries literals half the time. *)
let gen_response =
  let open QCheck2.Gen in
  let module J = Es_obs.Obs_json in
  let double = oneof [ map Int64.float_of_bits int64; float; map float_of_int small_signed_int ] in
  let text = oneofl [ "queue full"; "infeasible: the deadline cannot be met"; "a \"quoted\"\n\\ line\t\001" ] in
  let rid =
    oneof
      [ pure J.Null; map (fun i -> J.Num (float_of_int i)) small_signed_int; map (fun s -> J.Str s) text ]
  in
  let solved =
    let* n = int_range 1 6 in
    let* energy = double and* makespan = double and* speeds = array_repeat n double in
    let* engine = oneofl [ "vdd-hopping LP"; "continuous convex solve" ] and* exact = bool in
    let* reexecuted = list_size (int_bound 3) (int_bound (n - 1)) and* literals = bool in
    let literals =
      if literals then
        Some
          {
            Protocol.energy_lit = J.number_literal energy;
            makespan_lit = J.number_literal makespan;
            speed_lits = Array.map J.number_literal speeds;
          }
      else None
    in
    pure (Protocol.Solved { Protocol.energy; speeds; makespan; engine; exact; reexecuted; literals })
  in
  let status =
    oneof
      [
        solved;
        map (fun m -> Protocol.Infeasible m) text;
        map (fun m -> Protocol.Rejected m) text;
        map (fun m -> Protocol.Shed m) text;
        map (fun b -> Protocol.Over_budget { budget_s = b }) double;
      ]
  in
  let* rid = rid and* status = status in
  let* cache = opt (oneofl [ Protocol.Cold; Protocol.Hit; Protocol.Rescale_hit ]) in
  let+ self_check = opt bool in
  { Protocol.rid; status; cache; self_check }

let qcheck_render_matches_reference =
  QCheck2.Test.make ~name:"protocol: render = the Json-tree reference, every status" ~count:500
    ~print:reference_render gen_response (fun r ->
      String.equal (Protocol.render r) (reference_render r))

(* --- canon: qcheck properties --------------------------------------- *)

let qcheck_canon_relabel_invariant =
  let open QCheck2 in
  let gen = Gen.pair (Qgen.qgen ()) (Gen.int_bound 1_000_000) in
  let print (ginst, seed) = Printf.sprintf "%s\nrelabeling seed %d" (Qgen.qprint ginst) seed in
  Test.make ~name:"canon: keys invariant under task/processor relabeling"
    ~count:200 ~print gen (fun (ginst, seed) ->
      let pi = continuous_instance ginst in
      let order = Protocol.resolve_order pi in
      let n = Array.length pi.Protocol.weights in
      let rng = Rng.create ~seed in
      let sigma = permutation rng n in
      let proc_rot = Rng.int rng (max 1 (Array.length order)) in
      let pi', order' = relabel ~sigma ~proc_rot pi order in
      let c = Canon.of_instance ~order pi in
      let c' = Canon.of_instance ~order:order' pi' in
      String.equal c.Canon.exact_key c'.Canon.exact_key
      && Option.equal String.equal c.Canon.scaled_key c'.Canon.scaled_key)

(* Work scaled by c = 2^k leaves every normalized weight bit for bit
   unchanged, so the scaled key must agree.  Under any other factor a
   normalized weight sitting on a rounding boundary of the key's grid
   may round the other way (see canon.mli). *)
let qcheck_canon_scaled_key_agreement =
  let open QCheck2 in
  let gen =
    Gen.triple (Qgen.qgen ()) (Gen.int_range (-4) 4) (Gen.float_range 0.5 3.)
  in
  let print (ginst, k, d) =
    Printf.sprintf "%s\nc = %g (2^%d), d = %.17g" (Qgen.qprint ginst) (Float.ldexp 1. k) k d
  in
  Test.make ~name:"canon: scaled key ignores uniform work/deadline scaling"
    ~count:200 ~print gen (fun (ginst, k, d) ->
      let c = Float.ldexp 1. k in
      let pi = continuous_instance ginst in
      let order = Protocol.resolve_order pi in
      let scaled =
        {
          pi with
          Protocol.weights = Array.map (fun w -> w *. c) pi.Protocol.weights;
          deadline = pi.Protocol.deadline *. d;
        }
      in
      let a = Canon.of_instance ~order pi in
      let b = Canon.of_instance ~order scaled in
      (* same canonical shape -> same scaled key; the exact key must
         split unless the scaling is the identity *)
      Option.equal String.equal a.Canon.scaled_key b.Canon.scaled_key
      && Option.is_some a.Canon.scaled_key
      && (k = 0 && Float.abs (d -. 1.) < 1e-9
         || not (String.equal a.Canon.exact_key b.Canon.exact_key)))

(* A CONTINUOUS instance with a fixed model and deadline, and its
   list-scheduled order on [procs] processors. *)
let small_instance ~procs weights edges =
  let pi =
    {
      Protocol.weights;
      edges;
      procs;
      order = None;
      model = Speed.continuous ~fmin:0.1 ~fmax:5.;
      deadline = 10.;
      rel = None;
    }
  in
  (pi, Protocol.resolve_order pi)

(* Small instances with many ties: weights from {1, 2}, forward edges
   (a < b) each present with probability 1/3. *)
let gen_small ~n ~procs =
  let open QCheck2.Gen in
  let pairs = List.concat (List.init n (fun a -> List.init (n - a - 1) (fun k -> (a, a + k + 1)))) in
  let* weights = array_repeat n (oneofl [ 1.; 2. ]) in
  let+ keep = array_repeat (List.length pairs) (int_bound 2) in
  small_instance ~procs weights (List.filteri (fun i _ -> keep.(i) = 0) pairs)

let cmp_pair (a1, b1) (a2, b2) =
  let c = Int.compare a1 a2 in
  if c <> 0 then c else Int.compare b1 b2

let rec permutations = function
  | [] -> [ [] ]
  | xs ->
    List.concat_map
      (fun x ->
        List.map (List.cons x) (permutations (List.filter (fun y -> not (Int.equal x y)) xs)))
      xs

(* Is there a task bijection sigma carrying (a, order_a) onto
   (b, order_b)?  Every permutation is tried; for each, the chains must
   match under some processor bijection, i.e. as multisets. *)
let isomorphic ((a : Protocol.instance), order_a) ((b : Protocol.instance), order_b) =
  let n = Array.length a.Protocol.weights in
  let sorted_chains chains = List.sort (List.compare Int.compare) (Array.to_list chains) in
  let edges_b = List.sort_uniq cmp_pair b.Protocol.edges in
  let chains_b = sorted_chains order_b in
  let carries sigma =
    let sigma = Array.of_list sigma in
    Array.for_all Fun.id
      (Array.mapi (fun i w -> Float.equal w b.Protocol.weights.(sigma.(i))) a.Protocol.weights)
    && List.equal
         (fun x y -> cmp_pair x y = 0)
         (List.sort_uniq cmp_pair (List.map (fun (x, y) -> (sigma.(x), sigma.(y))) a.Protocol.edges))
         edges_b
    && List.equal (List.equal Int.equal)
         (sorted_chains (Array.map (List.map (fun t -> sigma.(t))) order_a))
         chains_b
  in
  n = Array.length b.Protocol.weights
  && Array.length order_a = Array.length order_b
  && List.exists carries (permutations (List.init n Fun.id))

let qcheck_canon_exact_key_iff_isomorphic =
  let open QCheck2 in
  let gen =
    let open Gen in
    let* n = int_range 1 6 in
    let* procs = int_range 1 3 in
    let* first = gen_small ~n ~procs in
    oneof
      [
        (let+ seed = int_bound 1_000_000 in
         let pi, order = first in
         let rng = Rng.create ~seed in
         let sigma = permutation rng n in
         (first, relabel ~sigma ~proc_rot:(Rng.int rng procs) pi order));
        (let+ second = gen_small ~n ~procs in
         (first, second));
      ]
  in
  let show ((pi : Protocol.instance), order) =
    Printf.sprintf "weights [%s] edges [%s] chains [%s]"
      (String.concat "; " (Array.to_list (Array.map (Printf.sprintf "%g") pi.Protocol.weights)))
      (String.concat "; " (List.map (fun (a, b) -> Printf.sprintf "%d>%d" a b) pi.Protocol.edges))
      (String.concat " | "
         (Array.to_list
            (Array.map (fun c -> String.concat " " (List.map string_of_int c)) order)))
  in
  let print (a, b) = show a ^ "\n" ^ show b in
  Test.make ~name:"canon: exact keys agree iff the instances are isomorphic" ~count:300 ~print
    gen (fun (((pa, oa) as a), ((pb, ob) as b)) ->
      let ka = Canon.of_instance ~order:oa pa and kb = Canon.of_instance ~order:ob pb in
      Bool.equal (String.equal ka.Canon.exact_key kb.Canon.exact_key) (isomorphic a b))

let test_canon_distinguishes_chains () =
  (* same weight multiset, different precedence order: distinct keys *)
  let mk weights =
    let pi =
      {
        Protocol.weights;
        edges = [ (0, 1); (1, 2) ];
        procs = 1;
        order = None;
        model = Speed.continuous ~fmin:0.1 ~fmax:5.;
        deadline = 10.;
        rel = None;
      }
    in
    let order = Protocol.resolve_order pi in
    Canon.of_instance ~order pi
  in
  let a = mk [| 1.; 2.; 3. |] and b = mk [| 2.; 1.; 3. |] in
  Alcotest.(check bool) "chain 1-2-3 <> chain 2-1-3" false
    (String.equal a.Canon.exact_key b.Canon.exact_key)

let test_canon_keys_split () =
  let key ~order weights edges =
    let pi, _ = small_instance ~procs:(Array.length order) weights edges in
    (Canon.of_instance ~order pi).Canon.exact_key
  in
  let differ what a b = Alcotest.(check bool) what false (String.equal a b) in
  let alone = [| [ 0 ]; [ 1 ]; [ 2 ] |] in
  let w = [| 1.; 2.; 3. |] in
  differ "one weight one ulp up"
    (key ~order:alone w [ (0, 1); (1, 2) ])
    (key ~order:alone [| 1.; 2.; Float.succ 3. |] [ (0, 1); (1, 2) ]);
  differ "one edge reversed"
    (key ~order:alone w [ (0, 1); (1, 2) ])
    (key ~order:alone w [ (0, 1); (2, 1) ]);
  differ "one chain split across two processors"
    (key ~order:[| [ 0; 1; 2 ]; [] |] w [])
    (key ~order:[| [ 0; 1 ]; [ 2 ] |] w [])

(* Equal tasks, one per processor, joined by the edges of bipartite
   cycles: [cycles [k; ...]] builds, for each k, a cycle of 2k tasks
   whose source u_i precedes the sinks v_i and v_(i+1 mod k).  Colour
   refinement alone cannot tell one 8-cycle from two 4-cycles, and in a
   4-cycle beside an 8-cycle it leaves the sources of both in one
   class, so only the individualization search, with its leaf order,
   makes the keys canonical. *)
let cycles sizes =
  let n = 2 * List.fold_left ( + ) 0 sizes in
  let edges, _ =
    List.fold_left
      (fun (acc, base) k ->
        let cyc =
          List.concat
            (List.init k (fun i ->
                 [ (base + i, base + k + i); (base + i, base + k + ((i + 1) mod k)) ]))
        in
        (cyc @ acc, base + (2 * k)))
      ([], 0) sizes
  in
  let pi, _ = small_instance ~procs:n (Array.make n 1.) edges in
  (pi, Array.init n (fun i -> [ i ]))

let test_canon_individualization () =
  let exhausted = Es_obs.Obs.counter "serve.canon.budget_exhausted" in
  let before = Es_obs.Obs.value exhausted in
  Es_obs.Obs.enable ();
  Fun.protect ~finally:(fun () -> Es_obs.Obs.disable ()) @@ fun () ->
  let key (pi, order) = (Canon.of_instance ~order pi).Canon.exact_key in
  Alcotest.(check bool) "one 8-cycle <> two 4-cycles" false
    (String.equal (key (cycles [ 4 ])) (key (cycles [ 2; 2 ])));
  let pi, order = cycles [ 2; 4 ] in
  let base = key (pi, order) in
  let rng = Rng.create ~seed:5 in
  for _ = 1 to 20 do
    let sigma = permutation rng (Array.length pi.Protocol.weights) in
    let proc_rot = Rng.int rng (Array.length order) in
    Alcotest.(check bool) "a 4-cycle beside an 8-cycle, relabeled" true
      (String.equal base (key (relabel ~sigma ~proc_rot pi order)))
  done;
  Alcotest.(check int) "no budget fallback" 0 (Es_obs.Obs.value exhausted - before)

(* n equal independent tasks, one per processor: every labeling is an
   automorphism, so the search tree has n! leaves.  Five tasks take
   206 refinement passes, six more than the budget of 1000. *)
let test_canon_budget_counted () =
  let exhausted = Es_obs.Obs.counter "serve.canon.budget_exhausted" in
  let fallbacks n =
    let pi, _ = small_instance ~procs:n (Array.make n 1.) [] in
    let order = Array.init n (fun i -> [ i ]) in
    let before = Es_obs.Obs.value exhausted in
    Es_obs.Obs.enable ();
    Fun.protect
      ~finally:(fun () -> Es_obs.Obs.disable ())
      (fun () -> ignore (Canon.of_instance ~order pi));
    Es_obs.Obs.value exhausted - before
  in
  Alcotest.(check int) "five tasks finish the search" 0 (fallbacks 5);
  Alcotest.(check int) "six tasks exhaust the budget" 1 (fallbacks 6)

(* Nine independent tasks, one per processor, in three weight classes
   of five, two and two: 2·2·120 leaves, 827 refinement passes, one per
   search node.  A refinement below an individualization that passes
   once more than it needs to (1,653 passes) runs out of the budget of
   1000 and may keep a leaf that depends on the labeling. *)
let test_canon_budget_pass_per_node () =
  let exhausted = Es_obs.Obs.counter "serve.canon.budget_exhausted" in
  let weights = [| 1.; 1.; 1.; 1.; 1.; 2.; 2.; 3.; 3. |] in
  let pi, _ = small_instance ~procs:9 weights [] in
  let order = Array.init 9 (fun i -> [ i ]) in
  let before = Es_obs.Obs.value exhausted in
  Es_obs.Obs.enable ();
  Fun.protect ~finally:(fun () -> Es_obs.Obs.disable ()) @@ fun () ->
  let key (pi, order) = (Canon.of_instance ~order pi).Canon.exact_key in
  let rng = Rng.create ~seed:11 in
  let relabeled () =
    key (relabel ~sigma:(permutation rng 9) ~proc_rot:(Rng.int rng 9) pi order)
  in
  let a = relabeled () and b = relabeled () in
  Alcotest.(check int) "no budget fallback" 0 (Es_obs.Obs.value exhausted - before);
  Alcotest.(check bool) "two relabelings, one exact key" true (String.equal a b)

(* --- cache ---------------------------------------------------------- *)

let solved_of (pi : Protocol.instance) =
  match
    Solver.solve
      {
        Solver.mapping = Protocol.resolve_mapping pi;
        model = pi.Protocol.model;
        deadline = pi.Protocol.deadline;
        rel = pi.Protocol.rel;
      }
  with
  | Ok a ->
    Protocol.Solved
      (Protocol.solved_of_schedule ~engine:a.Solver.engine ~exact:a.Solver.exact
         a.Solver.schedule)
  | Error e -> Alcotest.fail e

let diamond =
  {
    Protocol.weights = [| 1.; 1.5; 2.; 1. |];
    edges = [ (0, 1); (0, 2); (1, 3); (2, 3) ];
    procs = 2;
    order = None;
    model = Speed.continuous ~fmin:0.05 ~fmax:5.;
    deadline = 8.;
    rel = None;
  }

let test_cache_exact_hit_permutes () =
  let cache = Cache.create () in
  let order = Protocol.resolve_order diamond in
  let canon = Canon.of_instance ~order diamond in
  Cache.insert cache ~inst:diamond ~canon (solved_of diamond);
  (* relabeled duplicate must hit and return speeds in its own labels *)
  let sigma = [| 3; 2; 1; 0 |] in
  let pi', order' = relabel ~sigma ~proc_rot:1 diamond order in
  let canon' = Canon.of_instance ~order:order' pi' in
  match Cache.lookup cache ~inst:pi' ~order:order' ~canon:canon' with
  | Some { Cache.status = Protocol.Solved s; disposition = Protocol.Hit } ->
    (match solved_of pi' with
    | Protocol.Solved fresh ->
      Array.iteri
        (fun i v ->
          Alcotest.(check (float 1e-6)) (Printf.sprintf "speed %d" i) fresh.Protocol.speeds.(i) v)
        s.Protocol.speeds
    | _ -> Alcotest.fail "fresh solve failed")
  | _ -> Alcotest.fail "expected an exact hit"

(* Every exact hit of an entry, under any labelling, renders the same
   line as its floats would: the stored literals are those floats'
   own, permuted with them. *)
let test_cache_exact_hit_literals () =
  let cache = Cache.create () in
  let order = Protocol.resolve_order diamond in
  let canon = Canon.of_instance ~order diamond in
  Cache.insert cache ~inst:diamond ~canon (solved_of diamond);
  List.iter
    (fun sigma ->
      let pi', order' = relabel ~sigma ~proc_rot:1 diamond order in
      let canon' = Canon.of_instance ~order:order' pi' in
      match Cache.lookup cache ~inst:pi' ~order:order' ~canon:canon' with
      | Some { Cache.status = Protocol.Solved s; disposition = Protocol.Hit } ->
        Alcotest.(check bool) "carries literals" true (Option.is_some s.Protocol.literals);
        let line status =
          Protocol.render { Protocol.rid = Es_obs.Obs_json.Null; status; cache = Some Protocol.Hit; self_check = None }
        in
        Alcotest.(check string) "hit line = fresh render of its floats"
          (line (Protocol.Solved { s with Protocol.literals = None }))
          (line (Protocol.Solved s))
      | _ -> Alcotest.fail "expected an exact hit")
    [ [| 3; 2; 1; 0 |]; [| 0; 1; 2; 3 |]; [| 1; 3; 0; 2 |] ]

let test_cache_rescale_hit_law () =
  let cache = Cache.create () in
  let order = Protocol.resolve_order diamond in
  let canon = Canon.of_instance ~order diamond in
  (match solved_of diamond with
  | Protocol.Solved s as status ->
    Cache.insert cache ~inst:diamond ~canon status;
    let c = 2. and d = 1.25 in
    let scaled =
      {
        diamond with
        Protocol.weights = Array.map (fun w -> w *. c) diamond.Protocol.weights;
        deadline = diamond.Protocol.deadline *. d;
      }
    in
    let order' = Protocol.resolve_order scaled in
    let canon' = Canon.of_instance ~order:order' scaled in
    (match Cache.lookup cache ~inst:scaled ~order:order' ~canon:canon' with
    | Some { Cache.status = Protocol.Solved s'; disposition = Protocol.Rescale_hit } ->
      (* E' = E * c^3/d^2, f' = f * c/d: the scaling laws of escheck *)
      Alcotest.(check (float 1e-4))
        "energy follows c3/d2"
        (s.Protocol.energy *. (c ** 3.) /. (d ** 2.))
        s'.Protocol.energy;
      Array.iteri
        (fun i v ->
          Alcotest.(check (float 1e-6)) (Printf.sprintf "speed %d scales" i)
            (s.Protocol.speeds.(i) *. c /. d)
            v)
        s'.Protocol.speeds
    | _ -> Alcotest.fail "expected a rescale hit")
  | _ -> Alcotest.fail "diamond must solve")

let test_cache_rescale_requires_interior () =
  (* a deadline so loose every speed clamps at fmin: the bound is
     active, the optimum is not scale-covariant, so no rescaling *)
  let tight = { diamond with Protocol.deadline = 50.; model = Speed.continuous ~fmin:0.8 ~fmax:4. } in
  let cache = Cache.create () in
  let order = Protocol.resolve_order tight in
  let canon = Canon.of_instance ~order tight in
  Cache.insert cache ~inst:tight ~canon (solved_of tight);
  let scaled =
    { tight with Protocol.deadline = tight.Protocol.deadline *. 1.05 }
  in
  let canon' = Canon.of_instance ~order scaled in
  match Cache.lookup cache ~inst:scaled ~order ~canon:canon' with
  | None -> ()
  | Some { Cache.disposition = Protocol.Rescale_hit; _ } ->
    Alcotest.fail "boundary optimum must not be rescaled"
  | Some _ -> Alcotest.fail "unexpected exact hit"

(* --- server --------------------------------------------------------- *)

let test_server_hits_across_batches () =
  let srv = Server.create { Server.default_config with Server.batch = 1 } in
  match Server.process_batch srv ~pool:None [ chain_line ] with
  | [ first ] ->
    (match Server.process_batch srv ~pool:None [ chain_line ] with
    | [ second ] ->
      Alcotest.(check bool) "first is a miss" true
        (Astring.String.is_infix ~affix:{|"cache":"miss"|} first);
      Alcotest.(check bool) "second is a hit" true
        (Astring.String.is_infix ~affix:{|"cache":"hit"|} second)
    | _ -> Alcotest.fail "one response expected")
  | _ -> Alcotest.fail "one response expected"

let test_server_sheds_beyond_queue () =
  let srv =
    Server.create { Server.default_config with Server.batch = 4; queue = 1 }
  in
  let lines = [ chain_line; chain_line; "nonsense"; chain_line ] in
  match Server.process_batch srv ~pool:None lines with
  | [ r1; r2; r3; r4 ] ->
    Alcotest.(check bool) "1 admitted" true
      (Astring.String.is_infix ~affix:{|"status":"ok"|} r1);
    Alcotest.(check bool) "2 shed" true
      (Astring.String.is_infix ~affix:{|"status":"shed"|} r2);
    Alcotest.(check bool) "malformed answered, no slot" true
      (Astring.String.is_infix ~affix:{|"status":"error"|} r3);
    Alcotest.(check bool) "4 shed" true
      (Astring.String.is_infix ~affix:{|"status":"shed"|} r4)
  | _ -> Alcotest.fail "four responses expected"

(* A repeated line is answered from the verbatim table: the miss's
   line with its disposition turned into "hit", counted once per
   repeat, and a repeat beyond the queue bound is shed under the id
   stored with it. *)
let test_server_verbatim_repeats () =
  let srv =
    Server.create { Server.default_config with Server.batch = 3; queue = 2 }
  in
  let verbatim = Es_obs.Obs.counter "serve.cache.verbatim_hit" in
  match Server.process_batch srv ~pool:None [ chain_line ] with
  | [ miss ] -> (
    let before = Es_obs.Obs.value verbatim in
    Es_obs.Obs.enable ();
    let out =
      Fun.protect
        ~finally:(fun () -> Es_obs.Obs.disable ())
        (fun () ->
          Server.process_batch srv ~pool:None [ chain_line; chain_line; chain_line ])
    in
    Alcotest.(check int) "two verbatim hits counted" 2 (Es_obs.Obs.value verbatim - before);
    match out with
    | [ h1; h2; shed ] ->
      let hit =
        Astring.String.cuts ~sep:{|"cache":"miss"|} miss |> String.concat {|"cache":"hit"|}
      in
      Alcotest.(check string) "first repeat" hit h1;
      Alcotest.(check string) "second repeat" hit h2;
      Alcotest.(check string) "shed under the stored id"
        {|{"id":7,"status":"shed","error":"queue full"}|} shed
    | _ -> Alcotest.fail "three responses expected")
  | _ -> Alcotest.fail "one response expected"

let test_server_samples_bounded () =
  (* one miss, then verbatim hits until the window has overflowed *)
  let srv = Server.create Server.default_config in
  let hits = List.init 64 (fun _ -> chain_line) in
  ignore (Server.process_batch srv ~pool:None [ chain_line ]);
  for _ = 0 to (Server.sample_window / 64) + 1 do
    ignore (Server.process_batch srv ~pool:None hits)
  done;
  let samples = Server.samples srv in
  Alcotest.(check int) "window is full, not exceeded" Server.sample_window
    (List.length samples);
  Alcotest.(check bool) "the oldest sample (the miss) was dropped" true
    (List.for_all (fun (tag, _) -> String.equal tag "hit") samples)

(* Every CONTINUOUS instance twice (the second pass hits), then a
   rescaled copy of each (work x2, deadline x1.25) after its base's
   batch, so interior optima come back as rescale-hits. *)
let trace_lines () =
  let rng = Rng.create ~seed:41 in
  let line ~id ~c ~d inst =
    let pi = continuous_instance inst in
    let nums xs =
      Es_obs.Obs_json.List
        (Array.to_list (Array.map (fun x -> Es_obs.Obs_json.Num x) xs))
    in
    Es_obs.Obs_json.to_compact_string
      (Es_obs.Obs_json.Obj
         [
           ("id", Es_obs.Obs_json.Num (float_of_int id));
           ("tasks", nums (Array.map (fun w -> w *. c) pi.Protocol.weights));
           ( "edges",
             Es_obs.Obs_json.List
               (List.map
                  (fun (a, b) ->
                    Es_obs.Obs_json.List
                      [
                        Es_obs.Obs_json.Num (float_of_int a);
                        Es_obs.Obs_json.Num (float_of_int b);
                      ])
                  pi.Protocol.edges) );
           ("procs", Es_obs.Obs_json.Num (float_of_int pi.Protocol.procs));
           ( "model",
             Es_obs.Obs_json.Obj
               [
                 ("kind", Es_obs.Obs_json.Str "continuous");
                 ("fmin", Es_obs.Obs_json.Num (CGen.fmin inst));
                 ("fmax", Es_obs.Obs_json.Num (CGen.fmax inst));
               ] );
           ("deadline", Es_obs.Obs_json.Num (pi.Protocol.deadline *. d));
         ])
  in
  let insts = List.init 10 (fun _ -> CGen.generate rng) in
  let base = List.mapi (fun i inst -> line ~id:i ~c:1. ~d:1. inst) insts in
  base @ base @ List.mapi (fun i inst -> line ~id:(10 + i) ~c:2. ~d:1.25 inst) insts

let run_whole_trace pool =
  let srv =
    Server.create { Server.default_config with Server.batch = 5; selfcheck = 1 }
  in
  let rec go acc = function
    | [] -> List.concat (List.rev acc)
    | lines ->
      let batch = List.filteri (fun i _ -> i < 5) lines in
      let rest = List.filteri (fun i _ -> i >= 5) lines in
      go (Server.process_batch srv ~pool batch :: acc) rest
  in
  go [] (trace_lines ())

let test_server_jobs_determinism () =
  let seq = run_whole_trace None in
  let par = Pool.with_pool ~domains:2 (fun pool -> run_whole_trace (Some pool)) in
  Alcotest.(check (list string)) "byte-identical across pool sizes" seq par;
  (* selfcheck = 1 re-solves every rescale-hit cold: all must agree *)
  let has affix r = Astring.String.is_infix ~affix r in
  let rescaled = List.filter (has {|"cache":"rescale-hit"|}) seq in
  Alcotest.(check bool) "some rescale-hits" true (rescaled <> []);
  Alcotest.(check bool) "every rescale-hit self-checks ok" true
    (List.for_all (has {|"self_check":"ok"|}) rescaled);
  Alcotest.(check bool) "no self-check failure" false
    (List.exists (has {|"self_check":"fail"|}) seq)

let suite =
  ( "serve",
    [
      Alcotest.test_case "protocol: parse round-trip" `Quick test_parse_roundtrip;
      Alcotest.test_case "protocol: malformed inputs rejected" `Quick test_parse_rejects;
      Alcotest.test_case "protocol: responses are compact JSON" `Quick
        test_render_is_compact_json;
      QCheck_alcotest.to_alcotest qcheck_canon_relabel_invariant;
      QCheck_alcotest.to_alcotest qcheck_canon_scaled_key_agreement;
      QCheck_alcotest.to_alcotest qcheck_canon_exact_key_iff_isomorphic;
      Alcotest.test_case "canon: weight order matters on a chain" `Quick
        test_canon_distinguishes_chains;
      Alcotest.test_case "canon: exact keys split on a one-ulp weight, an edge, a chain" `Quick
        test_canon_keys_split;
      Alcotest.test_case "canon: budget fallbacks are counted" `Quick test_canon_budget_counted;
      Alcotest.test_case "canon: ties refinement cannot split" `Quick test_canon_individualization;
      Alcotest.test_case "cache: exact hit permutes speeds" `Quick
        test_cache_exact_hit_permutes;
      Alcotest.test_case "cache: exact hits render their floats' literals" `Quick
        test_cache_exact_hit_literals;
      QCheck_alcotest.to_alcotest qcheck_render_matches_reference;
      Alcotest.test_case "cache: rescale hit follows the scaling laws" `Quick
        test_cache_rescale_hit_law;
      Alcotest.test_case "cache: boundary optima are not rescaled" `Quick
        test_cache_rescale_requires_interior;
      Alcotest.test_case "server: duplicate hits across batches" `Quick
        test_server_hits_across_batches;
      Alcotest.test_case "server: sheds beyond the queue bound" `Quick
        test_server_sheds_beyond_queue;
      Alcotest.test_case "server: verbatim repeats answer the stored line" `Quick
        test_server_verbatim_repeats;
      Alcotest.test_case "server: responses identical across pool sizes" `Quick
        test_server_jobs_determinism;
      Alcotest.test_case "server: latency samples keep a fixed window" `Quick
        test_server_samples_bounded;
      Alcotest.test_case "canon: one refinement pass per search node" `Quick
        test_canon_budget_pass_per_node;
    ] )
