let first_choices menu vary =
  if Array.length menu = 0 then invalid_arg "Subset_search: empty menu";
  Array.make (Array.length vary) menu.(0)

let exhaustive ~menu ~vary ~evaluate ~energy =
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
  (* depth first, the first position outermost, each in menu order *)
  let rec enum = function
    | [] -> consider ()
    | i :: rest ->
      Array.iter
        (fun c ->
          choice.(i) <- c;
          enum rest)
        menu
  in
  enum positions;
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
