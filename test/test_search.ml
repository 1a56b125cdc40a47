(* Properties of Subset_search against a synthetic evaluator whose
   energies take four values (so ties are common) and which rejects
   about a fifth of the choice vectors as infeasible. *)

let synthetic ~seed v =
  let h = Array.fold_left (fun h c -> ((h * 1_000_003) + c + 1) land 0xFFFFFF) seed v in
  let h = (h * 40_503) lsr 7 land 0xFFFF in
  if h mod 5 = 0 then None else Some (Array.copy v, float_of_int (h mod 4))

let energy (_, e) = e

(* menu, vary mask, evaluator seed *)
let gen =
  QCheck.Gen.(
    triple
      (array_size (int_range 1 3) (int_bound 9))
      (array_size (int_bound 6) bool)
      (int_bound 1_000_000))

let arb =
  QCheck.make gen ~print:(fun (menu, vary, seed) ->
      Printf.sprintf "menu [%s] vary [%s] seed %d"
        (String.concat ";" (Array.to_list (Array.map string_of_int menu)))
        (String.concat ";" (Array.to_list (Array.map string_of_bool vary)))
        seed)

(* An odometer over the menu indices of the varying positions, the
   last position turning fastest: the same order as a depth-first walk
   with the first position outermost.  The other positions keep their
   values in [start] (all [menu.(0)] unless given). *)
let odometer ?start ~menu ~vary ~evaluate () =
  let start = Option.value start ~default:(Array.make (Array.length vary) menu.(0)) in
  let positions = List.filter (fun i -> vary.(i)) (List.init (Array.length vary) Fun.id) in
  let digits = Array.make (List.length positions) 0 in
  let k = Array.length digits and m = Array.length menu in
  let best = ref None in
  let rec turn j =
    if j < 0 then false
    else if digits.(j) = m - 1 then begin
      digits.(j) <- 0;
      turn (j - 1)
    end
    else begin
      digits.(j) <- digits.(j) + 1;
      true
    end
  in
  let continue = ref true in
  while !continue do
    let v = Array.copy start in
    List.iteri (fun j i -> v.(i) <- menu.(digits.(j))) positions;
    (match (evaluate v, !best) with
    | Some s, Some b when energy s < energy b -> best := Some s
    | Some s, None -> best := Some s
    | _ -> ());
    continue := turn (k - 1)
  done;
  !best

(* The plain enumeration. *)
let qcheck_exhaustive_is_odometer =
  QCheck.Test.make ~name:"exhaustive = odometer enumeration" ~count:500 arb
    (fun (menu, vary, seed) ->
      let evaluate = synthetic ~seed in
      Subset_search.exhaustive ~menu ~vary ~evaluate ~energy = odometer ~menu ~vary ~evaluate ())

(* Nodes valid by construction: each subtree's answer comes from the
   odometer over it, and a subtree with no feasible vector is
   [Infeasible].  A draw from the node's decided positions sets the
   bound: the subtree's minimum, that minimum lowered, or, for a third
   of the seeds, no bound at all.  A leaf is [Attained] by its own
   vector; so is any node, by the odometer's, for some draws of half
   the seeds; the others split a random open position, first side at
   random. *)
let oracle_node ~menu ~evaluate ~seed partial =
  let start = Array.map (function Some c -> c | None -> menu.(0)) partial in
  let opened = Array.map Option.is_none partial in
  let n_open = Array.fold_left (fun k o -> if o then k + 1 else k) 0 opened in
  let draw =
    match synthetic ~seed:(seed + n_open) start with
    | Some (_, e) -> int_of_float e
    | None -> 4
  in
  let nth_open j =
    let rec from i j = if opened.(i) then if j = 0 then i else from (i + 1) (j - 1) else from (i + 1) j in
    from 0 j
  in
  match odometer ~start ~menu ~vary:opened ~evaluate () with
  | None -> Subset_search.Infeasible
  | Some (v, e) ->
    let bound =
      if draw = 4 && seed mod 3 = 0 then neg_infinity
      else e -. if draw < 2 then 0. else 0.25 *. float_of_int draw
    in
    if n_open = 0 || (draw < 2 && seed mod 2 = 0) then Subset_search.Attained { bound; vector = v }
    else
      Subset_search.Split
        { bound; at = nth_open ((draw + seed) mod n_open); first = ((draw * 7) + seed) mod Array.length menu }

(* The odometer's energy, and its vector whenever no other vector has
   that energy.  On a tie the search may keep another minimum: a
   subtree closed by [Attained], or one whose exact bound reaches an
   incumbent of energy 0, is not searched for ties. *)
let qcheck_branch_and_bound_is_odometer =
  QCheck.Test.make ~name:"branch and bound = odometer enumeration" ~count:500 arb
    (fun (menu, vary, seed) ->
      let evaluate = synthetic ~seed in
      let expected = odometer ~menu ~vary ~evaluate () in
      let found =
        Subset_search.branch_and_bound ~menu ~vary ~node:(oracle_node ~menu ~evaluate ~seed)
          ~evaluate ~energy
      in
      match (expected, found) with
      | None, None -> true
      | Some _, None | None, Some _ -> false
      | Some (v, e), Some (w, f) ->
        let unique = ref true in
        ignore
          (odometer ~menu ~vary
             ~evaluate:(fun u ->
               (match evaluate u with Some (u, g) when g = e && u <> v -> unique := false | _ -> ());
               None)
             ());
        e = f && ((not !unique) || v = w))

let qcheck_descent_local_minimum =
  QCheck.Test.make ~name:"descent: no worse than its start, no improving move left"
    ~count:500 arb (fun (menu, vary, seed) ->
      let evaluate = synthetic ~seed in
      let start = evaluate (Array.make (Array.length vary) menu.(0)) in
      match (Subset_search.descent ~menu ~vary ~evaluate ~energy, start) with
      | None, None -> true
      | Some _, None | None, Some _ -> false
      | Some ((v, e) as sol), Some s0 ->
        let no_better_move i =
          (not vary.(i))
          || Array.for_all
               (fun c ->
                 let w = Array.copy v in
                 w.(i) <- c;
                 match evaluate w with
                 | Some s -> energy s >= e -. 1e-12
                 | None -> true)
               menu
        in
        evaluate v = Some sol
        && e <= energy s0
        && List.for_all no_better_move (List.init (Array.length vary) Fun.id))

let test_menu_order_and_ties () =
  (* every vector ties: the first one evaluated wins *)
  let flat v = Some (Array.copy v, 1.) in
  let menu = [| 7; 3; 5 |] and vary = [| true; false; true |] in
  Alcotest.(check (option (pair (array int) (float 0.))))
    "first of equal energies" (Some ([| 7; 7; 7 |], 1.))
    (Subset_search.exhaustive ~menu ~vary ~evaluate:flat ~energy);
  Alcotest.(check (option (pair (array int) (float 0.))))
    "descent stays at the start" (Some ([| 7; 7; 7 |], 1.))
    (Subset_search.descent ~menu ~vary ~evaluate:flat ~energy);
  (* two moves tie for the best improvement: the lower position wins *)
  let valley v = Some (Array.copy v, [| 2.; 1.; 1.; 5. |].((2 * v.(0)) + v.(1))) in
  Alcotest.(check (option (pair (array int) (float 0.))))
    "first of equal moves" (Some ([| 1; 0 |], 1.))
    (Subset_search.descent ~menu:[| 0; 1 |] ~vary:[| true; true |] ~evaluate:valley ~energy);
  let seen = ref [] in
  let record v =
    seen := Array.to_list v :: !seen;
    None
  in
  ignore
    (Subset_search.exhaustive ~menu:[| false; true |] ~vary:[| true; true |] ~evaluate:record
       ~energy);
  Alcotest.(check (list (list bool)))
    "depth first, first position outermost"
    [ [ false; false ]; [ false; true ]; [ true; false ]; [ true; true ] ]
    (List.rev !seen)

(* The margin: a bound above the incumbent by less than 1e-9 of it
   prunes nothing, one above it by more skips the subtree, whether it
   splits or is attained. *)
let test_prune_margin () =
  let evaluated node =
    let seen = ref 0 in
    let evaluate v =
      incr seen;
      Some (Array.copy v, 1.)
    in
    ignore
      (Subset_search.branch_and_bound ~menu:[| false; true |] ~vary:[| true; true |] ~node
         ~evaluate ~energy);
    !seen
  in
  let root = Subset_search.Split { bound = neg_infinity; at = 0; first = 0 } in
  let split by (p : bool option array) =
    match p with
    | [| None; _ |] -> root
    | [| Some _; None |] -> Subset_search.Split { bound = 1. +. by; at = 1; first = 0 }
    | _ -> Subset_search.Attained { bound = neg_infinity; vector = Array.map (( = ) (Some true)) p }
  in
  let attained by (p : bool option array) =
    match p.(0) with
    | None -> root
    | Some c -> Subset_search.Attained { bound = 1. +. by; vector = [| c; false |] }
  in
  Alcotest.(check int) "within the margin: every vector" 4 (evaluated (split 0.5e-9));
  Alcotest.(check int) "beyond it: the second subtree is skipped" 2 (evaluated (split 2e-9));
  Alcotest.(check int) "attained within the margin: both subtrees" 2 (evaluated (attained 0.5e-9));
  Alcotest.(check int) "attained beyond it: the first only" 1 (evaluated (attained 2e-9))

(* Sides in the order asked, an attained vector as the subtree's
   answer, an infeasible one splitting its subtree instead, and ties
   going to the vector the enumeration reaches first, whichever the
   search reaches first. *)
let test_split_order_and_attained () =
  let seen = ref [] in
  let record v =
    seen := Array.to_list v :: !seen;
    if v.(1) then None else Some (Array.copy v, if v.(0) then 1. else 2.)
  in
  let search node =
    seen := [];
    let answer =
      Subset_search.branch_and_bound ~menu:[| false; true |] ~vary:[| true; true |] ~node
        ~evaluate:record ~energy
    in
    (answer, List.rev !seen)
  in
  let check name expected actual =
    Alcotest.(check (pair (option (pair (array bool) (float 0.))) (list (list bool))))
      name expected actual
  in
  let leaf p = Subset_search.Attained { bound = neg_infinity; vector = Array.map (( = ) (Some true)) p } in
  let second_first (p : bool option array) =
    match p with
    | [| _; None |] -> Subset_search.Split { bound = neg_infinity; at = 1; first = 1 }
    | [| None; Some _ |] -> Subset_search.Split { bound = neg_infinity; at = 0; first = 1 }
    | _ -> leaf p
  in
  check "last position outermost, true first"
    (Some ([| true; false |], 1.), [ [ true; true ]; [ false; true ]; [ true; false ]; [ false; false ] ])
    (search second_first);
  let attained (p : bool option array) =
    match p with
    | [| None; _ |] -> Subset_search.Split { bound = neg_infinity; at = 0; first = 0 }
    | [| Some c; None |] -> Subset_search.Attained { bound = 0.; vector = [| c; c |] }
    | _ -> leaf p
  in
  check "an attained subtree evaluates its vector, an infeasible one splits"
    (Some ([| true; false |], 1.), [ [ false; false ]; [ true; true ]; [ true; false ]; [ true; true ] ])
    (search attained);
  let flat v = Some (Array.copy v, 1.) in
  Alcotest.(check (option (pair (array bool) (float 0.))))
    "of equal energies, the first in enumeration order" (Some ([| false; false |], 1.))
    (Subset_search.branch_and_bound ~menu:[| false; true |] ~vary:[| true; true |] ~node:second_first
       ~evaluate:flat ~energy);
  Alcotest.check_raises "a decided position" (Invalid_argument "Subset_search: split on a decided position")
    (fun () -> ignore (search (fun _ -> Subset_search.Split { bound = neg_infinity; at = 0; first = 0 })))

let test_empty_menu () =
  let empty = Invalid_argument "Subset_search: empty menu" in
  let evaluate _ = None in
  Alcotest.check_raises "exhaustive" empty (fun () ->
      ignore (Subset_search.exhaustive ~menu:[||] ~vary:[| true |] ~evaluate ~energy));
  Alcotest.check_raises "branch and bound" empty (fun () ->
      ignore
        (Subset_search.branch_and_bound ~menu:[||] ~vary:[| true |]
           ~node:(fun _ -> Subset_search.Infeasible)
           ~evaluate ~energy));
  Alcotest.check_raises "descent" empty (fun () ->
      ignore (Subset_search.descent ~menu:[||] ~vary:[| true |] ~evaluate ~energy))

let suite =
  ( "subset-search",
    [
      Alcotest.test_case "menu order and ties" `Quick test_menu_order_and_ties;
      Alcotest.test_case "empty menu" `Quick test_empty_menu;
      Alcotest.test_case "prune margin" `Quick test_prune_margin;
      QCheck_alcotest.to_alcotest qcheck_exhaustive_is_odometer;
      QCheck_alcotest.to_alcotest qcheck_branch_and_bound_is_odometer;
      QCheck_alcotest.to_alcotest qcheck_descent_local_minimum;
      Alcotest.test_case "split order and attained vectors" `Quick test_split_order_and_attained;
    ] )
