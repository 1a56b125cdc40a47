module Obs = Es_obs.Obs

type segmentation = int list

type solution = {
  segments : segmentation;
  speeds : float array;
  energy : float;
  time : float;
}

let segment_works ~checkpoint_work ~weights segmentation =
  let n = Array.length weights in
  if List.fold_left ( + ) 0 segmentation <> n || List.exists (fun l -> l <= 0) segmentation
  then None
  else begin
    let pos = ref 0 in
    let works =
      List.map
        (fun len ->
          let acc = ref checkpoint_work in
          for k = !pos to !pos + len - 1 do
            acc := !acc +. weights.(k)
          done;
          pos := !pos + len;
          !acc)
        segmentation
    in
    Some (Array.of_list works)
  end

let c_evaluations = Obs.counter "checkpointing_evaluations"

let evaluate ~rel ~checkpoint_work ~deadline ~weights segmentation =
  Obs.incr c_evaluations;
  let twice works = Rel.choices rel ~weights:works ~subset:(Array.map (fun _ -> true) works) in
  match Option.bind (segment_works ~checkpoint_work ~weights segmentation) twice with
  | None -> None
  | Some choices ->
    (match Tricrit_chain.waterfill choices ~fmax:rel.Rel.fmax ~deadline with
    | None -> None
    | Some speeds ->
      let energy = ref 0. and time = ref 0. in
      Array.iteri
        (fun s (c : Rel.choice) ->
          let f = speeds.(s) in
          energy := !energy +. (c.energy *. f *. f);
          time := !time +. (c.time /. f))
        choices;
      Some { segments = segmentation; speeds; energy = !energy; time = !time })

let speed_grid = 64

let solve ~rel ~checkpoint_work ~deadline ~weights =
  let n = Array.length weights in
  if n = 0 then None
  else begin
    let prefix = Array.make (n + 1) 0. in
    for i = 0 to n - 1 do
      prefix.(i + 1) <- prefix.(i) +. weights.(i)
    done;
    let interval_work i j = prefix.(j) -. prefix.(i) +. checkpoint_work in
    (* precompute per-interval re-execution choices *)
    let twice_tbl = Array.make_matrix (n + 1) (n + 1) None in
    for i = 0 to n - 1 do
      for j = i + 1 to n do
        twice_tbl.(i).(j) <- Rel.twice rel ~w:(interval_work i j)
      done
    done;
    let best = ref None and seen = ref [] in
    let try_level fc =
      (* interval DP: minimise Σ 2V·f² with f = clamp(max(fc, floor)) *)
      let dp = Array.make (n + 1) infinity in
      let back = Array.make (n + 1) (-1) in
      dp.(0) <- 0.;
      for j = 1 to n do
        for i = 0 to j - 1 do
          match twice_tbl.(i).(j) with
          | None -> ()
          | Some (c : Rel.choice) ->
            let f = Es_util.Futil.clamp ~lo:c.floor ~hi:rel.Rel.fmax fc in
            let cost = dp.(i) +. (c.energy *. f *. f) in
            if cost < dp.(j) then begin
              dp.(j) <- cost;
              back.(j) <- i
            end
        done
      done;
      if dp.(n) < infinity then begin
        (* reconstruct the segmentation and re-optimise exactly *)
        let rec rebuild j acc =
          if j = 0 then acc else rebuild back.(j) ((j - back.(j)) :: acc)
        in
        let segmentation = rebuild n [] in
        (* levels often agree on a segmentation; evaluating it again
           would give the same energy, which cannot displace the first *)
        if not (List.exists (List.equal Int.equal segmentation) !seen) then begin
          seen := segmentation :: !seen;
          match evaluate ~rel ~checkpoint_work ~deadline ~weights segmentation with
          | None -> ()
          | Some sol -> (
            match !best with
            | Some b when b.energy <= sol.energy -> ()
            | _ -> best := Some sol)
        end
      end
    in
    for k = 0 to speed_grid do
      let fc =
        rel.Rel.fmin
        +. ((rel.Rel.fmax -. rel.Rel.fmin) *. float_of_int k /. float_of_int speed_grid)
      in
      try_level fc
    done;
    !best
  end

let reexec_equivalent ~rel ~deadline ~weights =
  let segmentation = List.init (Array.length weights) (fun _ -> 1) in
  evaluate ~rel ~checkpoint_work:0. ~deadline ~weights segmentation
