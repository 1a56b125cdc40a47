(* QCheck2 generators over Es_check.Gen's solver instances, for the
   property tests.  Integrated shrinking bisects the raw components:
   the shape, the weights, the processor count, the slack, the level
   grid and the seed of the wiring. *)

open Es_check.Gen

let qprint = describe

let qgen ?(shapes = all_shapes) () =
  let open QCheck2.Gen in
  let shape = oneofl shapes in
  (* Wiring randomness for layered/general shapes comes from an
     explicit seed so the generator stays a pure function of shrinkable
     scalars. *)
  shape >>= fun shape ->
  int_range 1 8 >>= fun n ->
  array_size (return (max 1 n)) (float_range 0.5 3.) >>= fun weights ->
  int_range 1 3 >>= fun procs ->
  float_range 1.05 3. >>= fun slack ->
  int_range 2 5 >>= fun m ->
  float_range 0.2 0.5 >>= fun flo ->
  float_range 0.1 0.3 >>= fun d ->
  int_range 0 1_000_000 >|= fun wiring_seed ->
  let rng = Es_util.Rng.create ~seed:wiring_seed in
  let n = Array.length weights in
  let structure =
    match shape with
    | Chain -> List.init (max 0 (n - 1)) (fun i -> (i, i + 1))
    | Fork -> List.init (max 0 (n - 1)) (fun i -> (0, i + 1))
    | Join -> List.init (max 0 (n - 1)) (fun i -> (i, n - 1))
    | Sp | Layered | General ->
      (* random increasing-id edges; SP-ness is not guaranteed here,
         relations that need it re-derive it and skip otherwise *)
      let edges = ref [] in
      for i = 0 to n - 1 do
        for j = i + 1 to n - 1 do
          if Es_util.Rng.bernoulli rng 0.35 then edges := (i, j) :: !edges
        done
      done;
      List.rev !edges
  in
  let shape = match shape with Sp -> General | s -> s in
  (* the even level grid of [Es_check.Gen] *)
  let levels = Array.init m (fun i -> flo +. (float_of_int i *. d)) in
  { shape; weights; edges = structure; procs; slack; levels }
