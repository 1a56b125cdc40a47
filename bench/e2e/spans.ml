module Obs = Es_obs.Obs
module Json = Es_obs.Obs_json

let root = "request"

type span = { name : string; rid : int; t0 : float; t1 : float }

type t = { mutable rev : span list }

let create () = { rev = [] }

let record t ~name ~rid ~t0 ~t1 = t.rev <- { name; rid; t0; t1 } :: t.rev

let time t ~name ~rid f =
  let t0 = Obs.now () in
  let v = f () in
  record t ~name ~rid ~t0 ~t1:(Obs.now ());
  v

let spans t = List.rev t.rev

(* Length of the union of [intervals] clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let sorted = List.sort (fun (a, _) (b, _) -> Float.compare a b) intervals in
  fst
    (List.fold_left
       (fun (total, reach) (a, b) ->
         let a = Float.max a reach and b = Float.min b hi in
         if b > a then (total +. (b -. a), b) else (total, reach))
       (0., lo) sorted)

let children t =
  let kids = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if not (String.equal s.name root) then
        Hashtbl.replace kids s.rid
          ((s.t0, s.t1) :: Option.value ~default:[] (Hashtbl.find_opt kids s.rid)))
    t.rev;
  kids

let self_times t =
  let kids = children t in
  let by_name = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let self =
        if String.equal s.name root then
          s.t1 -. s.t0
          -. covered ~lo:s.t0 ~hi:s.t1
               (Option.value ~default:[] (Hashtbl.find_opt kids s.rid))
        else s.t1 -. s.t0
      in
      let total, count = Option.value ~default:(0., 0) (Hashtbl.find_opt by_name s.name) in
      Hashtbl.replace by_name s.name (total +. self, count + 1))
    t.rev;
  List.sort
    (fun (a, _, _) (b, _, _) -> String.compare a b)
    (Hashtbl.fold (fun name (total, count) acc -> (name, total, count) :: acc) by_name [])

let write_ndjson t path =
  let all = Array.of_list (spans t) in
  let root_id = Hashtbl.create 256 in
  Array.iteri
    (fun i s -> if String.equal s.name root then Hashtbl.replace root_id s.rid i)
    all;
  let num i = Json.Num (float_of_int i) in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Array.iteri
        (fun i s ->
          let parent =
            match Hashtbl.find_opt root_id s.rid with
            | Some p when not (String.equal s.name root) -> num p
            | Some _ | None -> Json.Null
          in
          output_string oc
            (Json.to_compact_string
               (Json.Obj
                  [
                    ("id", num i);
                    ("parent", parent);
                    ("name", Json.Str s.name);
                    ("rid", num s.rid);
                    ("start_s", Json.Num s.t0);
                    ("end_s", Json.Num s.t1);
                  ]));
          output_char oc '\n')
        all)
