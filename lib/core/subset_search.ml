type 'c node =
  | Infeasible
  | Split of { bound : float; at : int; first : int }
  | Attained of { bound : float; vector : 'c array }

let first_choices menu vary =
  if Array.length menu = 0 then invalid_arg "Subset_search: empty menu";
  Array.make (Array.length vary) menu.(0)

(* A subtree is skipped only when its bound reaches the incumbent by
   this relative margin, so that a bound a rounding error above the
   subtree's true minimum cannot cut off an answer the plain
   enumeration would return. *)
let prune_margin = 1e-9

let branch_and_bound ~menu ~vary ~node ~evaluate ~energy =
  let partial = Array.mapi (fun i c -> if vary.(i) then None else Some c) (first_choices menu vary) in
  let decided = Array.map Option.some menu in
  (* an entry's menu position: its first, which the enumeration
     reaches first *)
  let index c =
    let rec from k = if menu.(k) = c then k else from (k + 1) in
    from 0
  in
  (* whether [v] comes before [w] in the plain enumeration's order *)
  let rec earlier v w i =
    i < Array.length v
    &&
    let a = index v.(i) and b = index w.(i) in
    a < b || (a = b && earlier v w (i + 1))
  in
  (* the incumbent and its vector *)
  let best = ref None in
  let consider v =
    match evaluate v with
    | None -> false
    | Some sol ->
      (match !best with
      | Some (b, w) when energy b < energy sol || (energy b = energy sol && not (earlier v w 0)) -> ()
      | _ -> best := Some (sol, Array.copy v));
      true
  in
  let pruned bound =
    let incumbent = match !best with Some (b, _) -> energy b | None -> infinity in
    bound >= incumbent +. (prune_margin *. Float.abs incumbent)
  in
  let rec visit () =
    match node partial with
    | Infeasible -> ()
    | Split { bound; at; first } -> if not (pruned bound) then split at first
    | Attained { bound; vector } ->
      (* an infeasible vector leaves its subtree open, unless a leaf *)
      if not (pruned bound || consider vector) then
        Option.iter (fun at -> split at 0) (Array.find_index Option.is_none partial)
  and split at first =
    if Option.is_some partial.(at) then invalid_arg "Subset_search: split on a decided position";
    let take k =
      partial.(at) <- decided.(k);
      visit ()
    in
    take first;
    Array.iteri (fun k _ -> if k <> first then take k) menu;
    partial.(at) <- None
  in
  visit ();
  Option.map fst !best

(* The lowest open position first, in menu order: the enumeration's
   own order. *)
let no_bound partial =
  match Array.find_index Option.is_none partial with
  | Some at -> Split { bound = neg_infinity; at; first = 0 }
  | None ->
    (* a leaf: every position is decided *)
    Attained { bound = neg_infinity; vector = Array.map (function Some c -> c | None -> assert false) partial }

let exhaustive ~menu ~vary ~evaluate ~energy =
  branch_and_bound ~menu ~vary ~node:no_bound ~evaluate ~energy

let descent ~menu ~vary ~evaluate ~energy =
  let choice = first_choices menu vary in
  (* index.(i): the menu position of choice.(i) *)
  let index = Array.make (Array.length vary) 0 in
  let rec descend current =
    let best_move = ref None in
    Array.iteri
      (fun i varies ->
        if varies then
          Array.iteri
            (fun k c ->
              if k <> index.(i) then begin
                let saved = choice.(i) in
                choice.(i) <- c;
                (match evaluate choice with
                | Some cand when energy cand < energy current -. 1e-12 -> (
                  match !best_move with
                  | Some (_, _, e) when e <= energy cand -> ()
                  | _ -> best_move := Some (i, k, energy cand))
                | _ -> ());
                choice.(i) <- saved
              end)
            menu)
      vary;
    match !best_move with
    | None -> Some current
    | Some (i, k, _) ->
      choice.(i) <- menu.(k);
      index.(i) <- k;
      Option.bind (evaluate choice) descend
  in
  Option.bind (evaluate choice) descend
