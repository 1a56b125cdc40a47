let first_choices menu vary =
  if Array.length menu = 0 then invalid_arg "Subset_search: empty menu";
  Array.make (Array.length vary) menu.(0)

(* A subtree is skipped only when its bound reaches the incumbent by
   this relative margin, so that a bound a rounding error above the
   subtree's true minimum cannot cut off an answer the plain
   enumeration would return. *)
let prune_margin = 1e-9

let exhaustive ~menu ~vary ~bound ~evaluate ~energy =
  let choice = first_choices menu vary in
  let positions = List.filter (fun i -> vary.(i)) (List.init (Array.length vary) Fun.id) in
  let best = ref None in
  let consider () =
    match evaluate choice with
    | None -> ()
    | Some sol -> (
      match !best with
      | Some b when energy b <= energy sol -> ()
      | _ -> best := Some sol)
  in
  let pruned decided =
    let incumbent = match !best with Some b -> energy b | None -> infinity in
    bound choice decided >= incumbent +. (prune_margin *. Float.abs incumbent)
  in
  (* depth first, the first position outermost, each in menu order;
     positions below [decided] are fixed in this subtree *)
  let rec enum decided = function
    | [] -> consider ()
    | i :: rest ->
      if not (pruned decided) then
        Array.iter
          (fun c ->
            choice.(i) <- c;
            enum (i + 1) rest)
          menu
  in
  enum 0 positions;
  !best

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
