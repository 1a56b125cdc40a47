module Obs = Es_obs.Obs
module Json = Es_obs.Obs_json
module Par = Es_par.Par

type config = {
  jobs : int;
  batch : int;
  queue : int;
  cache_capacity : int;
  selfcheck : int;
}

let default_config =
  {
    jobs = 1;
    batch = 8;
    queue = 64;
    cache_capacity = 4096;
    selfcheck = 0;
  }

(* A verbatim entry: the request's id, for a shed reply, and its
   ["cache":"hit"] response line, rendered at the first repeat. *)
type verbatim = { v_rid : Json.t; v_reply : string Lazy.t }

type t = {
  config : config;
  cache : Cache.t;
  (* byte-verbatim front table: request line -> rendered hit response *)
  verbatim : (string, verbatim) Hashtbl.t;
  verbatim_fifo : string Queue.t;
  mutable rescale_seen : int;
  samples : (string * float) Queue.t;  (* the latest [sample_window] *)
}

let sample_window = 10_000

let c_requests = Obs.counter "serve.requests"
let c_batches = Obs.counter "serve.batches"
let c_shed = Obs.counter "serve.shed"
let c_malformed = Obs.counter "serve.malformed"
let c_verbatim = Obs.counter "serve.cache.verbatim_hit"
let c_sc_ok = Obs.counter "serve.selfcheck.ok"
let c_sc_fail = Obs.counter "serve.selfcheck.fail"
let t_batch = Obs.timer "serve.batch"
let t_solve = Obs.timer "serve.solve"

let create config =
  {
    config;
    cache = Cache.create ~capacity:config.cache_capacity ();
    verbatim = Hashtbl.create 64;
    verbatim_fifo = Queue.create ();
    rescale_seen = 0;
    samples = Queue.create ();
  }

let push_sample t tag wall =
  Queue.add (tag, wall) t.samples;
  if Queue.length t.samples > sample_window then ignore (Queue.take_opt t.samples)

let samples t = List.of_seq (Queue.to_seq t.samples)

let reply ?cache ?self_check rid status =
  { Protocol.rid; status; cache; self_check }

let verbatim_insert t line rid status =
  match status with
  | Protocol.Solved _ | Protocol.Infeasible _ | Protocol.Rejected _ ->
    if not (Hashtbl.mem t.verbatim line) then begin
      if Queue.length t.verbatim_fifo >= t.config.cache_capacity then begin
        match Queue.take_opt t.verbatim_fifo with
        | Some old -> Hashtbl.remove t.verbatim old
        | None -> ()
      end;
      Hashtbl.add t.verbatim line
        { v_rid = rid; v_reply = lazy (Protocol.render (reply ~cache:Protocol.Hit rid status)) };
      Queue.add line t.verbatim_fifo
    end
  | Protocol.Shed _ | Protocol.Over_budget _ -> ()

(* ---- the parallel phase ------------------------------------------- *)

type work = { w_req : Protocol.request; w_mapping : Mapping.t }

(* Runs inside pool workers: must not raise (the catch-all turns any
   engine failure into a response) and must not touch shared state —
   walls come from [Obs.now], results travel back through the
   order-preserving join of [Par.parallel_map]. *)
let solve_one (w : work) =
  let t0 = Obs.now () in
  let status =
    try
      match
        Solver.solve
          {
            Solver.mapping = w.w_mapping;
            model = w.w_req.inst.model;
            deadline = w.w_req.inst.deadline;
            rel = w.w_req.inst.rel;
          }
      with
      | Ok a ->
        Protocol.Solved
          (Protocol.solved_of_schedule ~engine:a.engine ~exact:a.exact
             a.schedule)
      | Error msg ->
        if String.starts_with ~prefix:"infeasible" msg then
          Protocol.Infeasible msg
        else Protocol.Rejected msg
    with e -> Protocol.Rejected ("solver error: " ^ Printexc.to_string e)
  in
  let wall = Obs.now () -. t0 in
  let status =
    match w.w_req.budget_s with
    | Some b when wall > b -> Protocol.Over_budget { budget_s = b }
    | _ -> status
  in
  (status, wall)

let close rtol a b =
  Float.abs (a -. b) <= rtol *. Float.max 1. (Float.max (Float.abs a) (Float.abs b))

let agree (a : Protocol.solved) (b : Protocol.solved) =
  close 1e-5 a.energy b.energy
  && Array.length a.speeds = Array.length b.speeds
  && Array.for_all2 (fun x y -> close 1e-4 x y) a.speeds b.speeds

(* ---- one batch window --------------------------------------------- *)

type slot =
  | Immediate of string  (* the response line *)
  | Cached of { resp : Protocol.response; check : work option }
  | Cold of {
      req : Protocol.request;
      canon : Canon.t;
      work : work;
      line : string;
      prep : float;
    }

let immediate ?cache rid status = Immediate (Protocol.render (reply ?cache rid status))

let shed rid =
  Obs.incr c_shed;
  immediate rid (Protocol.Shed "queue full")

let classify t ~admitted line =
  let t0 = Obs.now () in
  match Hashtbl.find_opt t.verbatim line with
  | Some v ->
    if !admitted >= t.config.queue then shed v.v_rid
    else begin
      incr admitted;
      Obs.incr c_verbatim;
      push_sample t "hit" (Obs.now () -. t0);
      Immediate (Lazy.force v.v_reply)
    end
  | None -> (
    match Protocol.parse_line line with
    | Protocol.Malformed msg ->
      Obs.incr c_malformed;
      immediate Json.Null (Protocol.Rejected msg)
    | Protocol.Request req ->
      if !admitted >= t.config.queue then shed req.id
      else begin
        incr admitted;
        match Protocol.resolve_mapping req.inst with
        | exception Invalid_argument msg ->
          immediate req.id (Protocol.Rejected ("invalid instance: " ^ msg))
        | mapping -> (
          let order = Array.init (Mapping.p mapping) (Mapping.order mapping) in
          let canon = Canon.of_instance ~order req.inst in
          match Cache.lookup t.cache ~inst:req.inst ~order ~canon with
          | Some { status; disposition = Protocol.Hit } ->
            push_sample t "hit" (Obs.now () -. t0);
            immediate ~cache:Protocol.Hit req.id status
          | Some { status; disposition = (Protocol.Rescale_hit | Protocol.Cold) as d } ->
            push_sample t "rescale-hit" (Obs.now () -. t0);
            t.rescale_seen <- t.rescale_seen + 1;
            let check =
              if
                t.config.selfcheck > 0
                && t.rescale_seen mod t.config.selfcheck = 0
              then Some { w_req = req; w_mapping = mapping }
              else None
            in
            Cached { resp = reply ~cache:d req.id status; check }
          | None ->
            Cold
              {
                req;
                canon;
                work = { w_req = req; w_mapping = mapping };
                line;
                prep = Obs.now () -. t0;
              })
      end)

let process_batch t ~pool lines =
  Obs.time t_batch @@ fun () ->
  Obs.incr c_batches;
  let admitted = ref 0 in
  let slots =
    List.map
      (fun line ->
        Obs.incr c_requests;
        classify t ~admitted line)
      lines
  in
  (* gather the parallel work in slot order: cold solves, then sampled
     self-check re-solves ride along in the same batch *)
  let works =
    List.concat_map
      (function
        | Immediate _ -> []
        | Cached { check = Some w; _ } -> [ w ]
        | Cached { check = None; _ } -> []
        | Cold c -> [ c.work ])
      slots
  in
  let solved =
    Obs.time t_solve (fun () ->
        Par.parallel_map ?pool solve_one works)
  in
  let remaining = ref solved in
  let next () =
    match !remaining with
    | [] -> (Protocol.Rejected "internal error: result underflow", 0.)
    | x :: rest ->
      remaining := rest;
      x
  in
  List.map
    (function
      | Immediate line -> line
      | Cached { resp; check = None } -> Protocol.render resp
      | Cached { resp; check = Some _ } ->
        let re_status, _ = next () in
        let ok =
          match (resp.Protocol.status, re_status) with
          | Protocol.Solved a, Protocol.Solved b -> agree a b
          | _ -> false
        in
        Obs.incr (if ok then c_sc_ok else c_sc_fail);
        Protocol.render { resp with Protocol.self_check = Some ok }
      | Cold c ->
        let status, wall = next () in
        push_sample t "miss" (c.prep +. wall);
        Cache.insert t.cache ~inst:c.req.inst ~canon:c.canon status;
        verbatim_insert t c.line c.req.id status;
        Protocol.render (reply ~cache:Protocol.Cold c.req.id status))
    slots

(* ---- transport ---------------------------------------------------- *)

let read_batch ic n =
  let rec go n acc =
    if n <= 0 then List.rev acc
    else
      match input_line ic with
      | line -> go (n - 1) (line :: acc)
      | exception End_of_file -> List.rev acc
  in
  go n []

let run t ~pool ic oc =
  let rec loop () =
    match read_batch ic t.config.batch with
    | [] -> ()
    | lines ->
      List.iter
        (fun r ->
          output_string oc r;
          output_char oc '\n')
        (process_batch t ~pool lines);
      flush oc;
      loop ()
  in
  loop ()
