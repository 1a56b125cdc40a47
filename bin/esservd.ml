(* esservd: scheduling-as-a-service over newline-delimited JSON.

   Default mode serves stdin -> stdout (one request per line, one
   response per line, in order).  `--socket PATH` listens on a
   Unix-domain socket instead, serving connections one at a time;
   `--connect PATH` is the matching client: it forwards stdin to the
   socket, half-closes, and streams the responses to stdout.  See
   lib/serve/protocol.mli for the wire grammar and lib/serve/server.mli
   for batching, admission control and cache semantics. *)

module Server = Es_serve.Server
module Obs = Es_obs.Obs
module Pool = Es_par.Pool
module Stats = Es_util.Stats

let with_pool jobs f =
  if jobs <= 1 then f None
  else Pool.with_pool ~domains:jobs (fun p -> f (Some p))

(* --stats goes to stderr: stdout is the protocol stream. *)
let dump_stats srv =
  let samples = Server.samples srv in
  List.iter
    (fun tag ->
      let xs =
        Array.of_list
          (List.filter_map
             (fun (t, w) -> if String.equal t tag then Some w else None)
             samples)
      in
      if Array.length xs > 0 then
        Printf.eprintf "serve.lat.%-12s n=%-6d p50=%.6fs p99=%.6fs\n" tag
          (Array.length xs)
          (Stats.quantile xs 0.5)
          (Stats.quantile xs 0.99))
    [ "miss"; "hit"; "rescale-hit" ];
  prerr_string (Obs.render_text (Obs.snapshot ()))

let ignore_unix f = try f () with Unix.Unix_error (_, _, _) -> ()

let serve_socket srv ~pool path ~once =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  ignore_unix (fun () -> Unix.unlink path);
  Fun.protect
    ~finally:(fun () ->
      ignore_unix (fun () -> Unix.close sock);
      ignore_unix (fun () -> Unix.unlink path))
    (fun () ->
      Unix.bind sock (Unix.ADDR_UNIX path);
      Unix.listen sock 8;
      let rec accept_loop () =
        let fd, _ = Unix.accept sock in
        let ic = Unix.in_channel_of_descr fd in
        let oc = Unix.out_channel_of_descr fd in
        Fun.protect
          ~finally:(fun () ->
            (try flush oc with Sys_error _ -> ());
            ignore_unix (fun () -> Unix.close fd))
          (fun () -> Server.run srv ~pool ic oc);
        if not once then accept_loop ()
      in
      accept_loop ();
      0)

let client path =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> ignore_unix (fun () -> Unix.close sock))
    (fun () ->
      Unix.connect sock (Unix.ADDR_UNIX path);
      let oc = Unix.out_channel_of_descr sock in
      (try
         while true do
           let line = input_line stdin in
           output_string oc line;
           output_char oc '\n'
         done
       with End_of_file -> ());
      flush oc;
      Unix.shutdown sock Unix.SHUTDOWN_SEND;
      let ic = Unix.in_channel_of_descr sock in
      (try
         while true do
           print_endline (input_line ic)
         done
       with End_of_file -> ());
      0)

let main socket_path connect_to once batch queue jobs cache selfcheck stats =
  match connect_to with
  | Some path -> client path
  | None ->
    let config =
      {
        Server.jobs;
        batch = max 1 batch;
        queue = max 0 queue;
        cache_capacity = max 1 cache;
        selfcheck = max 0 selfcheck;
      }
    in
    if stats then Obs.enable ();
    Fun.protect
      ~finally:(fun () -> if stats then Obs.disable ())
      (fun () ->
        let srv = Server.create config in
        let code =
          with_pool config.Server.jobs (fun pool ->
              match socket_path with
              | None ->
                Server.run srv ~pool stdin stdout;
                0
              | Some path -> serve_socket srv ~pool path ~once)
        in
        if stats then dump_stats srv;
        code)

open Cmdliner

let socket_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH"
        ~doc:"Listen on a Unix-domain socket instead of serving stdin/stdout.")

let connect_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "connect" ] ~docv:"PATH"
        ~doc:
          "Client mode: forward stdin to the daemon at $(docv), print the \
           responses, exit.")

let once_arg =
  Arg.(
    value & flag
    & info [ "once" ]
        ~doc:"With $(b,--socket): exit after serving one connection.")

let batch_arg =
  Arg.(
    value & opt int 8
    & info [ "batch" ] ~docv:"N" ~doc:"Max requests per batch window.")

let queue_arg =
  Arg.(
    value & opt int 64
    & info [ "queue" ] ~docv:"N"
        ~doc:"Admission bound: requests per batch window beyond it are shed.")

let jobs_arg =
  Arg.(
    value
    & opt int (Domain.recommended_domain_count () [@lint.allow "P004"])
    & info [ "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains for the solve phase.  Responses are \
           byte-identical for every N.")

let cache_arg =
  Arg.(
    value & opt int 4096
    & info [ "cache" ] ~docv:"N" ~doc:"Cache capacity (entries per table).")

let selfcheck_arg =
  Arg.(
    value & opt int 0
    & info [ "selfcheck" ] ~docv:"K"
        ~doc:
          "Re-solve every $(docv)-th rescale-hit and report agreement \
           (0 = off).")

let stats_arg =
  Arg.(
    value & flag
    & info [ "stats" ]
        ~doc:
          (Printf.sprintf
             "Print telemetry, and the latency quantiles of the latest %d \
              requests, to stderr."
             Server.sample_window))

let cmd =
  let info =
    Cmd.info "esservd" ~version:"1.0.0"
      ~doc:"Energy-aware scheduling as a service (newline-delimited JSON)"
  in
  Cmd.v info
    Term.(
      const main $ socket_arg $ connect_arg $ once_arg $ batch_arg $ queue_arg
      $ jobs_arg $ cache_arg $ selfcheck_arg $ stats_arg)

let () = exit (Cmd.eval' cmd)
