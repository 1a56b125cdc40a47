module Server = Es_serve.Server
module Protocol = Es_serve.Protocol
module Canon = Es_serve.Canon
module Cache = Es_serve.Cache
module Par = Es_par.Par
module Obs = Es_obs.Obs
module Json = Es_obs.Obs_json

let batch = 2

let server ~jobs =
  Server.create { Server.default_config with Server.jobs; batch; queue = batch }

type replay = { responses : string list; latencies : float array }

(* Apply [window] to consecutive slices of [batch] lines, one at a
   time, recording each slice's wall; [between] runs before each slice,
   off the clock. *)
let closed_loop ?(between = ignore) lines window =
  let n = Array.length lines in
  let latencies = Array.make ((n + batch - 1) / batch) 0. in
  let rec go i acc =
    if i >= n then List.concat (List.rev acc)
    else begin
      let k = min batch (n - i) in
      between ();
      let t0 = Obs.now () in
      let out = window i (Array.to_list (Array.sub lines i k)) in
      latencies.(i / batch) <- Obs.now () -. t0;
      go (i + k) (out :: acc)
    end
  in
  let responses = go 0 [] in
  { responses; latencies }

let replay ?between srv ~pool lines =
  closed_loop ?between lines (fun _ window -> Server.process_batch srv ~pool window)

(* ---- the traced mirror ------------------------------------------- *)

type stats = {
  mutable requests : int;
  mutable verbatim_hits : int;
  mutable hits : int;
  mutable hit_lookup_s : float;
  mutable rescale_hits : int;
  mutable rescale_lookup_s : float;
  mutable phases : int;
  mutable phase_s : float;
  solve_s : (string, float * int) Hashtbl.t;
}

let new_stats () =
  {
    requests = 0;
    verbatim_hits = 0;
    hits = 0;
    hit_lookup_s = 0.;
    rescale_hits = 0;
    rescale_lookup_s = 0.;
    phases = 0;
    phase_s = 0.;
    solve_s = Hashtbl.create 8;
  }

(* The server's own handles, found by name, so the mirror reports the
   same serve.* telemetry. *)
let c_requests = Obs.counter "serve.requests"
let c_batches = Obs.counter "serve.batches"
let c_malformed = Obs.counter "serve.malformed"
let c_verbatim = Obs.counter "serve.cache.verbatim_hit"
let t_batch = Obs.timer "serve.batch"
let t_solve = Obs.timer "serve.solve"

type mirror = {
  cache : Cache.t;
  verbatim : (string, Protocol.status) Hashtbl.t;
  verbatim_fifo : string Queue.t;
}

let capacity = Server.default_config.cache_capacity

let mirror () =
  {
    cache = Cache.create ~capacity ();
    verbatim = Hashtbl.create 64;
    verbatim_fifo = Queue.create ();
  }

let verbatim_insert m line = function
  | Protocol.Solved _ | Protocol.Infeasible _ | Protocol.Rejected _ as status ->
    if not (Hashtbl.mem m.verbatim line) then begin
      if Queue.length m.verbatim_fifo >= capacity then
        Option.iter (Hashtbl.remove m.verbatim) (Queue.take_opt m.verbatim_fifo);
      Hashtbl.add m.verbatim line status;
      Queue.add line m.verbatim_fifo
    end
  | Protocol.Shed _ | Protocol.Over_budget _ -> ()

type cold = {
  rid : int;
  req : Protocol.request;
  mapping : Mapping.t;
  canon : Canon.t;
  line : string;
}

type slot = Answered of Protocol.response | Cold of cold

let reply ?cache rid status = { Protocol.rid; status; cache; self_check = None }

let classify m ~spans ~stats ~rid line =
  stats.requests <- stats.requests + 1;
  Obs.incr c_requests;
  match Spans.time spans ~name:"parse" ~rid (fun () -> Protocol.parse_line line) with
  | Protocol.Malformed msg ->
    Obs.incr c_malformed;
    Answered (reply Json.Null (Protocol.Rejected msg))
  | Protocol.Request req -> (
    match Hashtbl.find_opt m.verbatim line with
    | Some status ->
      Obs.incr c_verbatim;
      stats.verbatim_hits <- stats.verbatim_hits + 1;
      Answered (reply ~cache:Protocol.Hit req.id status)
    | None -> (
      match
        Spans.time spans ~name:"resolve" ~rid (fun () ->
            let mapping = Protocol.resolve_mapping req.inst in
            (mapping, Array.init (Mapping.p mapping) (Mapping.order mapping)))
      with
      | exception Invalid_argument msg ->
        Answered (reply req.id (Protocol.Rejected ("invalid instance: " ^ msg)))
      | mapping, order -> (
        let canon =
          Spans.time spans ~name:"canonicalize" ~rid (fun () ->
              Canon.of_instance ~order req.inst)
        in
        let t0 = Obs.now () in
        let found = Cache.lookup m.cache ~inst:req.inst ~order ~canon in
        let t1 = Obs.now () in
        Spans.record spans ~name:"cache_lookup" ~rid ~t0 ~t1;
        match found with
        | Some { status; disposition = Protocol.Hit } ->
          stats.hits <- stats.hits + 1;
          stats.hit_lookup_s <- stats.hit_lookup_s +. (t1 -. t0);
          Answered (reply ~cache:Protocol.Hit req.id status)
        | Some { status; disposition = (Protocol.Rescale_hit | Protocol.Cold) as d } ->
          stats.rescale_hits <- stats.rescale_hits + 1;
          stats.rescale_lookup_s <- stats.rescale_lookup_s +. (t1 -. t0);
          Answered (reply ~cache:d req.id status)
        | None -> Cold { rid; req; mapping; canon; line })))

(* [Server.solve_one], timed on the worker that runs it. *)
let solve_one (c : cold) =
  let t0 = Obs.now () in
  let status =
    try
      match
        Solver.solve
          {
            Solver.mapping = c.mapping;
            model = c.req.inst.model;
            deadline = c.req.inst.deadline;
            rel = c.req.inst.rel;
          }
      with
      | Ok a ->
        Protocol.Solved
          (Protocol.solved_of_schedule ~engine:a.engine ~exact:a.exact a.schedule)
      | Error msg ->
        if String.starts_with ~prefix:"infeasible" msg then Protocol.Infeasible msg
        else Protocol.Rejected msg
    with e -> Protocol.Rejected ("solver error: " ^ Printexc.to_string e)
  in
  let t1 = Obs.now () in
  let status =
    match c.req.budget_s with
    | Some b when t1 -. t0 > b -> Protocol.Over_budget { budget_s = b }
    | _ -> status
  in
  (status, t0, t1)

let mirror_window m ~pool ~spans ~stats ~first lines =
  Obs.time t_batch @@ fun () ->
  Obs.incr c_batches;
  let slots =
    List.mapi
      (fun j line ->
        let rid = first + j in
        let start = Obs.now () in
        (rid, start, classify m ~spans ~stats ~rid line))
      lines
  in
  let colds = List.filter_map (function _, _, Cold c -> Some c | _, _, Answered _ -> None) slots in
  let t0 = Obs.now () in
  let solved = Obs.time t_solve (fun () -> Par.parallel_map ?pool solve_one colds) in
  (match colds with
  | [] -> ()
  | _ :: _ ->
    stats.phases <- stats.phases + 1;
    stats.phase_s <- stats.phase_s +. (Obs.now () -. t0));
  let remaining = ref solved in
  let answer = function
    | Answered resp -> resp
    | Cold c ->
      let status, s0, s1 =
        match !remaining with
        | x :: rest ->
          remaining := rest;
          x
        | [] -> (Protocol.Rejected "internal error: result underflow", 0., 0.)
      in
      Spans.record spans ~name:"solve" ~rid:c.rid ~t0:s0 ~t1:s1;
      let cls = Inputs.engine_class c.req.inst.model c.req.inst.rel in
      let total, count = Option.value ~default:(0., 0) (Hashtbl.find_opt stats.solve_s cls) in
      Hashtbl.replace stats.solve_s cls (total +. (s1 -. s0), count + 1);
      Spans.time spans ~name:"cache_insert" ~rid:c.rid (fun () ->
          Cache.insert m.cache ~inst:c.req.inst ~canon:c.canon status;
          verbatim_insert m c.line status);
      reply ~cache:Protocol.Cold c.req.id status
  in
  List.map
    (fun (rid, start, slot) ->
      let resp = answer slot in
      let line = Spans.time spans ~name:"serialize" ~rid (fun () -> Protocol.render resp) in
      Spans.record spans ~name:Spans.root ~rid ~t0:start ~t1:(Obs.now ());
      line)
    slots

let mirror_replay m ~pool ~spans ~stats lines =
  closed_loop lines (fun first window -> mirror_window m ~pool ~spans ~stats ~first window)
