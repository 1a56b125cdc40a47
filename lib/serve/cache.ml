module Obs = Es_obs.Obs
module Json = Es_obs.Obs_json

(* Outcomes are stored in canonical task order; a hit permutes them
   back into the request's labeling.  Scalars (energy, makespan) are
   label-invariant. *)
type exact_payload = {
  c_energy : float;
  c_makespan : float;
  c_speeds : float array;
  c_engine : string;
  c_exact : bool;
  c_reexec : int list; (* canonical positions, sorted *)
  mutable c_literals : Protocol.literals option;
      (* the numbers rendered, speeds in canonical order: set at the
         entry's first exact hit, so an entry never hit renders none *)
}

type exact_entry =
  | E_solved of exact_payload
  | E_infeasible of string
  | E_rejected of string

type scaled_entry = {
  s_speeds : float array; (* canonical order *)
  s_w0 : float;
  s_d0 : float;
  s_engine : string;
}

type t = {
  capacity : int;
  exact : (string, exact_entry) Hashtbl.t;
  exact_fifo : string Queue.t;
  scaled : (string, scaled_entry) Hashtbl.t;
  scaled_fifo : string Queue.t;
}

let c_hit = Obs.counter "serve.cache.hit"
let c_miss = Obs.counter "serve.cache.miss"
let c_rescale_hit = Obs.counter "serve.cache.rescale_hit"
let c_rescale_reject = Obs.counter "serve.cache.rescale_reject"
let c_insert = Obs.counter "serve.cache.insert"
let c_evict = Obs.counter "serve.cache.evict"

let create ?(capacity = 4096) () =
  {
    capacity = max 1 capacity;
    exact = Hashtbl.create 64;
    exact_fifo = Queue.create ();
    scaled = Hashtbl.create 64;
    scaled_fifo = Queue.create ();
  }

let bump t tbl fifo key value =
  if Hashtbl.mem tbl key then Hashtbl.replace tbl key value
  else begin
    if Queue.length fifo >= t.capacity then begin
      match Queue.take_opt fifo with
      | Some old ->
        Hashtbl.remove tbl old;
        Obs.incr c_evict
      | None -> ()
    end;
    Hashtbl.add tbl key value;
    Queue.add key fifo;
    Obs.incr c_insert
  end

(* Strict interiority w.r.t. the speed bounds: all Lagrange
   multipliers of the bound constraints are zero, so the cached point
   is the unbounded optimum and rescales covariantly. *)
let interior ~fmin ~fmax speeds =
  let margin = 1e-4 in
  Array.for_all
    (fun s -> s > fmin *. (1. +. margin) && s < fmax *. (1. -. margin))
    speeds

type found = {
  status : Protocol.status;
  disposition : Protocol.disposition;
}

let insert t ~(inst : Protocol.instance) ~(canon : Canon.t)
    (status : Protocol.status) =
  match status with
  | Protocol.Solved s ->
    let n = Array.length s.speeds in
    let c_speeds = Array.make n 0. in
    Array.iteri (fun i p -> c_speeds.(p) <- s.speeds.(i)) canon.perm;
    let c_reexec =
      List.sort Int.compare (List.map (fun i -> canon.perm.(i)) s.reexecuted)
    in
    bump t t.exact t.exact_fifo canon.exact_key
      (E_solved
         {
           c_energy = s.energy;
           c_makespan = s.makespan;
           c_speeds;
           c_engine = s.engine;
           c_exact = s.exact;
           c_reexec;
           c_literals = None;
         });
    (match (canon.scaled_key, inst.model, s.reexecuted) with
    | Some key, Speed.Continuous { fmin; fmax }, []
      when s.exact
           && interior ~fmin ~fmax s.speeds
           && canon.total_work > 0.
           && inst.deadline > 0. ->
      bump t t.scaled t.scaled_fifo key
        {
          s_speeds = c_speeds;
          s_w0 = canon.total_work;
          s_d0 = inst.deadline;
          s_engine = s.engine;
        }
    | _ -> ())
  | Protocol.Infeasible msg ->
    bump t t.exact t.exact_fifo canon.exact_key (E_infeasible msg)
  | Protocol.Rejected msg ->
    bump t t.exact t.exact_fifo canon.exact_key (E_rejected msg)
  | Protocol.Shed _ | Protocol.Over_budget _ -> ()

let try_rescale ~(inst : Protocol.instance) ~order ~(canon : Canon.t)
    (e : scaled_entry) =
  if canon.total_work <= 0. || inst.deadline <= 0. then None
  else begin
    let factor = canon.total_work /. e.s_w0 /. (inst.deadline /. e.s_d0) in
    let n = Array.length inst.weights in
    let speeds =
      Array.init n (fun i -> e.s_speeds.(canon.perm.(i)) *. factor)
    in
    match
      let mapping = Mapping.make ~p:(Array.length order) (Protocol.dag inst) ~order in
      let sched = Schedule.of_speeds mapping ~speeds in
      match
        Validate.check ~deadline:inst.deadline ?rel:inst.rel ~model:inst.model
          sched
      with
      | [] -> Some (Protocol.solved_of_schedule ~engine:e.s_engine ~exact:true sched)
      | _ :: _ -> None
    with
    | exception Invalid_argument _ -> None
    | None -> None
    | Some solved ->
      Some { status = Protocol.Solved solved; disposition = Protocol.Rescale_hit }
  end

let literals p =
  match p.c_literals with
  | Some l -> l
  | None ->
    let l =
      {
        Protocol.energy_lit = Json.number_literal p.c_energy;
        makespan_lit = Json.number_literal p.c_makespan;
        speed_lits = Array.map Json.number_literal p.c_speeds;
      }
    in
    p.c_literals <- Some l;
    l

let lookup t ~(inst : Protocol.instance) ~order ~(canon : Canon.t) =
  match Hashtbl.find_opt t.exact canon.exact_key with
  | Some (E_solved p) ->
    Obs.incr c_hit;
    let n = Array.length inst.weights in
    let speeds = Array.init n (fun i -> p.c_speeds.(canon.perm.(i))) in
    let reexecuted =
      List.filter
        (fun i -> List.exists (Int.equal canon.perm.(i)) p.c_reexec)
        (List.init n (fun i -> i))
    in
    let l = literals p in
    Some
      {
        status =
          Protocol.Solved
            {
              energy = p.c_energy;
              speeds;
              makespan = p.c_makespan;
              engine = p.c_engine;
              exact = p.c_exact;
              reexecuted;
              literals =
                Some
                  {
                    l with
                    Protocol.speed_lits =
                      Array.init n (fun i -> l.speed_lits.(canon.perm.(i)));
                  };
            };
        disposition = Protocol.Hit;
      }
  | Some (E_infeasible msg) ->
    Obs.incr c_hit;
    Some { status = Protocol.Infeasible msg; disposition = Protocol.Hit }
  | Some (E_rejected msg) ->
    Obs.incr c_hit;
    Some { status = Protocol.Rejected msg; disposition = Protocol.Hit }
  | None -> (
    let scaled =
      match canon.scaled_key with
      | None -> None
      | Some key -> (
        match Hashtbl.find_opt t.scaled key with
        | None -> None
        | Some e -> (
          match try_rescale ~inst ~order ~canon e with
          | Some f ->
            Obs.incr c_rescale_hit;
            Some f
          | None ->
            Obs.incr c_rescale_reject;
            None))
    in
    match scaled with
    | Some f -> Some f
    | None ->
      Obs.incr c_miss;
      None)
