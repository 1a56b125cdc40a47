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

let no_bound _ _ = neg_infinity

(* Bounds valid by construction: the odometer's minimum over the
   subtree, [infinity] when the subtree has no feasible vector.  A
   draw from the decided prefix keeps it exact two times in five, so
   that subtrees tying with the incumbent are pruned too, lowers it
   otherwise, and for a third of the seeds sometimes gives no bound. *)
let oracle_bound ~menu ~vary ~evaluate ~seed v decided =
  let draw =
    match synthetic ~seed:(seed + decided) (Array.sub v 0 decided) with
    | Some (_, e) -> int_of_float e
    | None -> 4
  in
  let subtree = Array.mapi (fun i varies -> varies && i >= decided) vary in
  if draw = 4 && seed mod 3 = 0 then neg_infinity
  else
    match odometer ~start:v ~menu ~vary:subtree ~evaluate () with
    | None -> infinity
    | Some s -> energy s -. if draw < 2 then 0. else 0.25 *. float_of_int draw

(* With no bound and with the oracle's bounds alike. *)
let qcheck_exhaustive_is_odometer =
  QCheck.Test.make ~name:"exhaustive = odometer enumeration" ~count:500 arb
    (fun (menu, vary, seed) ->
      let evaluate = synthetic ~seed in
      let expected = odometer ~menu ~vary ~evaluate () in
      Subset_search.exhaustive ~menu ~vary ~bound:no_bound ~evaluate ~energy = expected
      && Subset_search.exhaustive ~menu ~vary
           ~bound:(oracle_bound ~menu ~vary ~evaluate ~seed)
           ~evaluate ~energy
         = expected)

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
    (Subset_search.exhaustive ~menu ~vary ~bound:no_bound ~evaluate:flat ~energy);
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
    (Subset_search.exhaustive ~menu:[| false; true |] ~vary:[| true; true |] ~bound:no_bound
       ~evaluate:record ~energy);
  Alcotest.(check (list (list bool)))
    "depth first, first position outermost"
    [ [ false; false ]; [ false; true ]; [ true; false ]; [ true; true ] ]
    (List.rev !seen)

(* The margin: a bound above the incumbent by less than 1e-9 of it
   prunes nothing, one above it by more skips the subtree. *)
let test_prune_margin () =
  let evaluated bound =
    let seen = ref 0 in
    let evaluate v =
      incr seen;
      Some (Array.copy v, 1.)
    in
    ignore
      (Subset_search.exhaustive ~menu:[| false; true |] ~vary:[| true; true |] ~bound ~evaluate
         ~energy);
    !seen
  in
  let above by _ decided = if decided = 0 then neg_infinity else 1. +. by in
  Alcotest.(check int) "within the margin: every vector" 4 (evaluated (above 0.5e-9));
  Alcotest.(check int) "beyond it: the second subtree is skipped" 2 (evaluated (above 2e-9))

let test_empty_menu () =
  let empty = Invalid_argument "Subset_search: empty menu" in
  let evaluate _ = None in
  Alcotest.check_raises "exhaustive" empty (fun () ->
      ignore
        (Subset_search.exhaustive ~menu:[||] ~vary:[| true |] ~bound:no_bound ~evaluate ~energy));
  Alcotest.check_raises "descent" empty (fun () ->
      ignore (Subset_search.descent ~menu:[||] ~vary:[| true |] ~evaluate ~energy))

let suite =
  ( "subset-search",
    [
      Alcotest.test_case "menu order and ties" `Quick test_menu_order_and_ties;
      Alcotest.test_case "empty menu" `Quick test_empty_menu;
      Alcotest.test_case "prune margin" `Quick test_prune_margin;
      QCheck_alcotest.to_alcotest qcheck_exhaustive_is_odometer;
      QCheck_alcotest.to_alcotest qcheck_descent_local_minimum;
    ] )
