(* gcserved: the supervised simulation service.

   Examples:
     gcserved serve --socket /tmp/gc.sock --workers 4 --deadline 30
     gcserved serve --socket /tmp/gc.sock --manifest shutdown.json
     gcserved supervise --socket /tmp/gc.sock -- --workers 4
     gcserved client --socket /tmp/gc.sock health
     gcserved client --socket /tmp/gc.sock sim --policy lru --k 1024 \
         --workload zipf --n 20000
     gcserved client --socket /tmp/gc.sock miss-curve --policy iblp \
         --ks 64,256,1024
     gcserved client --socket /tmp/gc.sock raw --json '{"op":"stats"}'

   Protocol, overload semantics, and drain behavior: doc/SERVING.md.
   Exit codes (see doc/ROBUSTNESS.md): serve exits 0 after a clean
   SIGTERM/SIGINT drain (a second signal hard-exits 130), 1 on runtime
   failure, 2 on usage errors.  client maps the reply's error kind onto
   the shared contract: 0 ok, 1 runtime-ish kinds (exception, timeout,
   overloaded, expired, draining, cancelled), 2 usage/protocol, 3
   model-violation.  Error replies also get a one-line stderr summary
   naming the kind as retryable or terminal, with the server's
   retry_after_ms hint when it sent one. *)

open Cmdliner

(* This tool's EXIT STATUS entries, shown by every --help page it has. *)
let exits =
  Cli_common.exits
  @ [
      Cmd.Exit.info Cli_common.model_violation
        ~doc:"on a model-violation reply.";
      Cmd.Exit.info Cli_common.interrupted
        ~doc:
          "when a second signal hard-exits a drain already in progress.";
    ]

module Json = Gc_obs.Json

(* ---------------------------------------------------------------- serve *)

let socket_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH"
        ~doc:"Unix-domain socket to serve on (or connect to).")

let tcp_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "tcp" ] ~docv:"PORT" ~doc:"Also listen on (connect to) TCP $(docv).")

let tcp_host_arg =
  Arg.(
    value
    & opt string "127.0.0.1"
    & info [ "tcp-host" ] ~docv:"HOST" ~doc:"Host for $(b,--tcp).")

let listeners ~socket ~tcp ~tcp_host =
  let socket = if socket = None && tcp = None then Some "gcserved.sock" else socket in
  (socket, Option.map (fun p -> (tcp_host, p)) tcp)

let serve socket tcp tcp_host workers queue_depth deadline frame_timeout
    codel_target codel_interval retry_after_ms seed manifest trace name =
  let socket_path, tcp = listeners ~socket ~tcp ~tcp_host in
  let base = Gc_serve.Server.default_config in
  let config =
    {
      base with
      Gc_serve.Server.socket_path;
      tcp;
      queue_depth = Option.value queue_depth ~default:base.Gc_serve.Server.queue_depth;
      workers = Option.value workers ~default:base.Gc_serve.Server.workers;
      deadline = Option.value deadline ~default:base.Gc_serve.Server.deadline;
      frame_timeout =
        Option.value frame_timeout ~default:base.Gc_serve.Server.frame_timeout;
      codel_target =
        Option.value codel_target ~default:base.Gc_serve.Server.codel_target;
      codel_interval =
        Option.value codel_interval ~default:base.Gc_serve.Server.codel_interval;
      retry_after_ms =
        Option.value retry_after_ms ~default:base.Gc_serve.Server.retry_after_ms;
      seed = Option.value seed ~default:base.Gc_serve.Server.seed;
      trace;
      name;
    }
  in
  Printf.eprintf "gcserved: serving%s%s%s (workers %d, queue %d, deadline %gs)\n%!"
    (match name with
    | Some n -> Printf.sprintf " as %s" n
    | None -> "")
    (match socket_path with
    | Some p -> Printf.sprintf " on %s" p
    | None -> "")
    (match tcp with
    | Some (h, p) -> Printf.sprintf " and tcp %s:%d" h p
    | None -> "")
    config.Gc_serve.Server.workers config.Gc_serve.Server.queue_depth
    config.Gc_serve.Server.deadline;
  Gc_serve.Server.run ?manifest_path:manifest config;
  prerr_endline "gcserved: drained";
  Cli_common.ok

let serve_cmd =
  Cmd.v
    (Cmd.info "serve" ~exits
       ~doc:"Run the simulation daemon until SIGTERM/SIGINT")
    Term.(
      const serve $ socket_arg $ tcp_arg $ tcp_host_arg
      $ Arg.(
          value
          & opt (some int) None
          & info [ "workers" ] ~docv:"N"
              ~doc:
                "Concurrent simulations (default: cores - 1); also the \
                 ceiling of the adaptive concurrency limit.")
      $ Arg.(
          value
          & opt (some int) None
          & info [ "queue-depth" ] ~docv:"N"
              ~doc:
                "Admission-queue bound; beyond it requests are shed with \
                 an $(b,overloaded) reply (default 64).")
      $ Arg.(
          value
          & opt (some float) None
          & info [ "deadline" ] ~docv:"SECONDS"
              ~doc:"Per-request wall-clock budget (default 30).")
      $ Arg.(
          value
          & opt (some float) None
          & info [ "frame-timeout" ] ~docv:"SECONDS"
              ~doc:
                "Whole-frame delivery budget; slower senders are cut off \
                 (default 10).")
      $ Arg.(
          value
          & opt (some float) None
          & info [ "codel-target" ] ~docv:"SECONDS"
              ~doc:
                "Acceptable queue sojourn before CoDel-style shedding \
                 kicks in; 0 disables sojourn shedding and the \
                 LIFO-under-overload switch (default 0.1).")
      $ Arg.(
          value
          & opt (some float) None
          & info [ "codel-interval" ] ~docv:"SECONDS"
              ~doc:
                "How long sojourn must stay above the target before \
                 shedding starts; also the AIMD decrease cooldown \
                 (default 0.5).")
      $ Arg.(
          value
          & opt (some int) None
          & info [ "retry-after-ms" ] ~docv:"MS"
              ~doc:
                "Base backoff hint attached to overloaded/expired \
                 replies; the wire value is jittered in [base/2, \
                 3*base/2] (default 100).")
      $ Arg.(
          value
          & opt (some int) None
          & info [ "seed" ] ~docv:"N"
              ~doc:
                "Seed for the retry-after jitter stream — drills replay \
                 byte-identically under a fixed seed (default 0).")
      $ Arg.(
          value
          & opt (some string) None
          & info [ "manifest" ] ~docv:"FILE"
              ~doc:
                "Write a shutdown manifest (final metric registry: queue \
                 depth, shed count, latency histograms) to $(docv) after \
                 the drain.")
      $ Arg.(
          value
          & opt (some string) None
          & info [ "trace" ] ~docv:"FILE"
              ~doc:
                "Enable request-path span tracing (decode, queue-wait, \
                 execute, encode, reply) and write a Chrome trace-event \
                 JSON — loadable in Perfetto — to $(docv) after the \
                 drain.")
      $ Arg.(
          value
          & opt (some string) None
          & info [ "name" ] ~docv:"NAME"
              ~doc:
                "Replica identity within a fleet: echoed as a \
                 $(i,replica) field in health/stats replies and the \
                 shutdown manifest.  Set automatically by $(b,fleet)."))

(* ------------------------------------------------------------ supervise *)

let server_exe_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "server" ] ~docv:"EXE"
        ~doc:"The gcserved executable to spawn (default: this binary).")

(* The watchdog: spawn `gcserved serve` as a child and keep it up.  All
   the machinery lives in Gc_resil.Supervise; this command wires flags,
   signals (first SIGTERM/SIGINT forwards the drain, a second hard-exits
   130 via the shared Supervisor contract), and the exit code: 0 after a
   clean drain, 3 when the restart budget is spent (give-up). *)
let supervise socket tcp tcp_host server_exe child_args seed =
  let socket_path, tcp = listeners ~socket ~tcp ~tcp_host in
  let health_addr =
    match (socket_path, tcp) with
    | Some p, _ -> Gc_serve.Client.Unix_path p
    | None, Some (h, p) -> Gc_serve.Client.Tcp (h, p)
    | None, None -> Gc_serve.Client.Unix_path "gcserved.sock"
  in
  let exe = Option.value server_exe ~default:Sys.executable_name in
  let argv =
    Array.of_list
      ([ exe; "serve" ]
      @ (match socket_path with Some p -> [ "--socket"; p ] | None -> [])
      @ (match tcp with
        | Some (h, p) -> [ "--tcp"; string_of_int p; "--tcp-host"; h ]
        | None -> [])
      @ child_args)
  in
  let base = Gc_resil.Supervise.default_config ~argv ~health_addr in
  let config =
    {
      base with
      Gc_resil.Supervise.seed =
        Option.value seed ~default:base.Gc_resil.Supervise.seed;
    }
  in
  Printf.eprintf "gcserved: supervising %s\n%!"
    (String.concat " " (Array.to_list argv));
  let outcome =
    Gc_exec.Supervisor.with_interrupt
      ~message:"gcserved: supervisor draining (signal again to hard-exit)"
      (fun token ->
        Gc_resil.Supervise.run
          ~on_event:(fun e ->
            Printf.eprintf "gcserved: supervisor: %s\n%!"
              (Gc_resil.Supervise.event_string e))
          ~stop:token config)
  in
  match outcome.Gc_resil.Supervise.result with
  | `Drained ->
      Printf.eprintf "gcserved: supervisor drained (%d restarts)\n%!"
        outcome.Gc_resil.Supervise.restarts;
      Cli_common.ok
  | `Gave_up ->
      Cli_common.fail_model
        "supervisor gave up: %d restarts inside the %gs window"
        outcome.Gc_resil.Supervise.restarts config.Gc_resil.Supervise.restart_window

let supervise_cmd =
  Cmd.v
    (Cmd.info "supervise" ~exits
       ~doc:
         "Run the serve daemon as a supervised child: restart it on crash \
          or wedge (health-probe liveness), with exponential backoff and a \
          restart budget.  Exit 0 after a signal-driven drain, 3 when the \
          budget is spent.  Arguments after $(b,--) are passed to the \
          child's $(b,serve) command.")
    Term.(
      const supervise $ socket_arg $ tcp_arg $ tcp_host_arg $ server_exe_arg
      $ Arg.(
          value & pos_all string []
          & info [] ~docv:"SERVE_ARG"
              ~doc:"Extra flags for the child's $(b,serve) command.")
      $ Arg.(
          value
          & opt (some int) None
          & info [ "seed" ] ~docv:"N"
              ~doc:"Backoff jitter seed (default 0)."))

(* ---------------------------------------------------------------- fleet *)

(* A replica set: N supervised serve children, one socket and one restart
   budget each (Gc_resil.Fleet).  One crash-looping replica spends its
   own budget and goes dark while the rest keep serving; only when every
   replica has given up does the fleet exit 3. *)
let fleet socket replicas server_exe child_args seed manifest =
  if replicas < 1 then Cli_common.fail_usage "--replicas must be >= 1";
  let base_socket = Option.value socket ~default:"gcserved.sock" in
  let base_seed = Option.value seed ~default:0 in
  let exe = Option.value server_exe ~default:Sys.executable_name in
  let config i =
    let sock = Gc_resil.Fleet.replica_socket ~base:base_socket i in
    let name = Printf.sprintf "replica-%d" i in
    let argv =
      Array.of_list
        ([ exe; "serve"; "--socket"; sock; "--name"; name ] @ child_args)
    in
    {
      (Gc_resil.Supervise.default_config ~argv
         ~health_addr:(Gc_serve.Client.Unix_path sock))
      with
      (* Distinct seeds: backoff jitter must never synchronize restarts
         across the set. *)
      Gc_resil.Supervise.seed = base_seed + i;
    }
  in
  let configs = Array.init replicas config in
  Printf.eprintf "gcserved: fleet of %d replicas on %s.0..%d\n%!" replicas
    base_socket (replicas - 1);
  let outcome =
    Gc_exec.Supervisor.with_interrupt
      ~message:"gcserved: fleet draining (signal again to hard-exit)"
      (fun token ->
        Gc_resil.Fleet.run
          ~on_event:(fun ~replica e ->
            Printf.eprintf "gcserved: fleet[%d]: %s\n%!" replica
              (Gc_resil.Supervise.event_string e))
          ~stop:token configs)
  in
  let replica_json i (o : Gc_resil.Supervise.outcome) =
    Json.Obj
      [
        ("replica", Json.Int i);
        ( "result",
          Json.String
            (match o.Gc_resil.Supervise.result with
            | `Drained -> "drained"
            | `Gave_up -> "gave-up") );
        ("restarts", Json.Int o.Gc_resil.Supervise.restarts);
      ]
  in
  (match manifest with
  | None -> ()
  | Some path ->
      let m =
        Gc_obs.Manifest.make ~tool:"gcserved" ~command:"fleet" ~seed:base_seed
          ~extra:
            [
              ( "status",
                Json.String
                  (match outcome.Gc_resil.Fleet.result with
                  | `Drained -> "drained"
                  | `All_gave_up -> "all-gave-up") );
              ( "replicas",
                Json.Array
                  (Array.to_list
                     (Array.mapi replica_json outcome.Gc_resil.Fleet.replicas))
              );
            ]
          []
      in
      Gc_obs.Export.write_json_atomic path (Gc_obs.Manifest.to_json m));
  match outcome.Gc_resil.Fleet.result with
  | `Drained ->
      Array.iteri
        (fun i (o : Gc_resil.Supervise.outcome) ->
          match o.Gc_resil.Supervise.result with
          | `Drained ->
              Printf.eprintf "gcserved: fleet[%d]: drained (%d restarts)\n%!" i
                o.Gc_resil.Supervise.restarts
          | `Gave_up ->
              Printf.eprintf
                "gcserved: fleet[%d]: gave up (%d restarts) — bulkheaded, \
                 rest of the fleet served on\n\
                 %!"
                i o.Gc_resil.Supervise.restarts)
        outcome.Gc_resil.Fleet.replicas;
      Cli_common.ok
  | `All_gave_up ->
      Cli_common.fail_model "fleet outage: all %d replicas spent their restart budgets"
        replicas

let fleet_cmd =
  Cmd.v
    (Cmd.info "fleet" ~exits
       ~doc:
         "Run N independently supervised serve replicas, one Unix socket \
          each ($(b,BASE.0) .. $(b,BASE.N-1)) with per-replica restart \
          budgets: a crash-looping replica goes dark alone (bulkhead) \
          while the rest keep serving.  Exit 0 after a signal-driven \
          drain, 3 only when $(i,every) replica spent its budget.  \
          Arguments after $(b,--) are passed to each child's $(b,serve) \
          command.")
    Term.(
      const fleet $ socket_arg
      $ Arg.(
          value & opt int 3
          & info [ "replicas" ] ~docv:"N"
              ~doc:"Replica count (default 3).")
      $ server_exe_arg
      $ Arg.(
          value & pos_all string []
          & info [] ~docv:"SERVE_ARG"
              ~doc:"Extra flags for each child's $(b,serve) command.")
      $ Arg.(
          value
          & opt (some int) None
          & info [ "seed" ] ~docv:"N"
              ~doc:
                "Base backoff jitter seed; replica $(i,i) uses seed + i \
                 (default 0).")
      $ Arg.(
          value
          & opt (some string) None
          & info [ "manifest" ] ~docv:"FILE"
              ~doc:
                "Write a fleet manifest (per-replica outcome and restart \
                 counts) to $(docv) after the drain."))

(* --------------------------------------------------------------- client *)

let addr ~socket ~tcp ~tcp_host =
  match (socket, tcp) with
  | Some _, Some _ ->
      Cli_common.fail_usage "--socket and --tcp are mutually exclusive"
  | None, Some port -> Gc_serve.Client.Tcp (tcp_host, port)
  | Some path, None -> Gc_serve.Client.Unix_path path
  | None, None -> Gc_serve.Client.Unix_path "gcserved.sock"

let ks_conv =
  let parse s =
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | x :: rest -> (
          match int_of_string_opt (String.trim x) with
          | Some k -> go (k :: acc) rest
          | None -> Error (`Msg (Printf.sprintf "bad capacity %S in %S" x s)))
    in
    match go [] (String.split_on_char ',' s) with
    | Ok [] -> Error (`Msg "empty capacity list")
    | r -> r
  in
  Arg.conv
    ( parse,
      fun fmt ks ->
        Format.pp_print_string fmt
          (String.concat "," (List.map string_of_int ks)) )

let exit_of_reply = function
  | Gc_serve.Protocol.Ok_result _ -> Cli_common.ok
  | Gc_serve.Protocol.Err (kind, _) ->
      if kind = "model-violation" then Cli_common.model_violation
      else if
        kind = Gc_serve.Protocol.kind_usage
        || kind = Gc_serve.Protocol.kind_protocol
      then Cli_common.usage_error
      else Cli_common.runtime_error

(* Kinds a caller can sensibly try again later (the reply may carry a
   retry_after_ms hint); every other kind is terminal for this request. *)
let retryable_kind kind =
  kind = Gc_serve.Protocol.kind_overloaded
  || kind = Gc_serve.Protocol.kind_expired
  || kind = Gc_serve.Protocol.kind_timeout

(* One stderr line classifying an error reply, so scripts that only read
   the exit code and humans who only read the last line both learn
   whether retrying is worthwhile — and how long to wait. *)
let describe_error_reply reply_json reply =
  match reply with
  | Gc_serve.Protocol.Ok_result _ -> ()
  | Gc_serve.Protocol.Err (kind, message) ->
      let hint =
        match Gc_serve.Protocol.retry_after_ms reply_json with
        | Some ms -> Printf.sprintf "; retry after ~%dms" ms
        | None -> ""
      in
      Printf.eprintf "gcserved: %s %s reply: %s%s\n%!"
        (if retryable_kind kind then "retryable" else "terminal")
        kind message hint

(* Render a stats reply's registry snapshot as Prometheus text
   exposition instead of echoing the framed JSON. *)
let print_prometheus reply_json =
  match Gc_serve.Protocol.reply_of_json reply_json with
  | Error msg -> Cli_common.fail_runtime "malformed reply: %s" msg
  | Ok (_id, (Gc_serve.Protocol.Err _ as reply)) ->
      Format.printf "%a@." Json.pp reply_json;
      exit_of_reply reply
  | Ok (_id, Gc_serve.Protocol.Ok_result result) -> (
      match Json.member "metrics" result with
      | None -> Cli_common.fail_runtime "stats reply has no \"metrics\" field"
      | Some metrics -> (
          match Gc_obs.Export.prometheus_of_json metrics with
          | Error msg ->
              Cli_common.fail_runtime "malformed metrics snapshot: %s" msg
          | Ok text ->
              print_string text;
              Cli_common.ok))

(* "host:PORT" (all-digit port) is TCP; anything else is a socket path. *)
let parse_endpoint s =
  match String.rindex_opt s ':' with
  | Some i
    when i > 0
         && i < String.length s - 1
         && String.for_all
              (fun c -> c >= '0' && c <= '9')
              (String.sub s (i + 1) (String.length s - i - 1)) ->
      Gc_serve.Client.Tcp
        ( String.sub s 0 i,
          int_of_string (String.sub s (i + 1) (String.length s - i - 1)) )
  | _ -> Gc_serve.Client.Unix_path s

let client socket tcp tcp_host op policy k seed workload n universe block_size
    check ks raw budget_ms timeout prom json_only attempts endpoints hedge_ms =
  if prom && op <> "stats" then
    Cli_common.fail_usage "--prom only applies to the stats op";
  if endpoints <> [] && (socket <> None || tcp <> None) then
    Cli_common.fail_usage "--endpoint and --socket/--tcp are mutually exclusive";
  if hedge_ms <> None && endpoints = [] then
    Cli_common.fail_usage "--hedge-ms needs --endpoint";
  let load =
    {
      Gc_serve.Protocol.workload;
      n = Option.value n ~default:20_000;
      universe = Option.value universe ~default:16_384;
      block_size = Option.value block_size ~default:16;
    }
  in
  let request =
    match op with
    | "health" -> Json.Obj [ ("op", Json.String "health") ]
    | "stats" -> Json.Obj [ ("op", Json.String "stats") ]
    | "sim" ->
        Gc_serve.Protocol.request_to_json
          {
            Gc_serve.Protocol.id = None;
            op = Gc_serve.Protocol.Sim
                { Gc_serve.Protocol.policy; k; seed; load; check };
            budget_ms;
          }
    | "miss-curve" ->
        Gc_serve.Protocol.request_to_json
          {
            Gc_serve.Protocol.id = None;
            op =
              Gc_serve.Protocol.Miss_curve
                {
                  Gc_serve.Protocol.curve_policy = policy;
                  ks;
                  curve_seed = seed;
                  curve_load = load;
                };
            budget_ms;
          }
    | "raw" -> (
        match raw with
        | None -> Cli_common.fail_usage "raw needs --json REQUEST"
        | Some s -> (
            match Json.parse s with
            | Ok j -> j
            | Error e ->
                Cli_common.fail_usage "--json: %s"
                  (Json.string_of_parse_error e)))
    | _ ->
        (assert false [@lint.allow "exit-contract"])
        (* the enum converter rejects anything else *)
  in
  if attempts < 1 then Cli_common.fail_usage "--attempts must be >= 1";
  let retry =
    { Gc_exec.Retry.default with Gc_exec.Retry.max_attempts = attempts }
  in
  (* The resilient client rides over a supervised restart mid-request:
     classified transport failures (refused/timeout/reset) and overloaded
     sheds retry with jittered backoff; protocol faults and draining
     replies fail fast.  Two or more --endpoint replicas add rotation,
     same-attempt failover, per-replica breakers, and (with --hedge-ms)
     hedged requests. *)
  let module Rc = Gc_resil.Resilient_client in
  let hedge = Option.map (fun ms -> Float.of_int ms /. 1000.) hedge_ms in
  let addrs =
    match endpoints with
    | [] -> [ addr ~socket ~tcp ~tcp_host ]
    | eps -> List.map parse_endpoint eps
  in
  let rc = Rc.create_set ~timeout ~retry ?hedge addrs in
  let result = Rc.request rc request in
  Rc.close rc;
  match result with
  | Error (Rc.Rejected (kind, message)) ->
      (* The retry policy (or its budget) gave up on a refusal the server
         framed properly; classify it the same way a direct reply is. *)
      Cli_common.fail_runtime "%s %s reply: %s"
        (if retryable_kind kind then "retryable" else "terminal")
        kind message
  | Error failure ->
      Cli_common.fail_runtime "%s" (Rc.string_of_failure failure)
  | Ok reply_json when prom -> print_prometheus reply_json
  | Ok reply_json -> (
      if json_only then print_endline (Json.to_string reply_json)
      else Format.printf "%a@." Json.pp reply_json;
      match Gc_serve.Protocol.reply_of_json reply_json with
      | Ok (_id, reply) ->
          if not json_only then describe_error_reply reply_json reply;
          exit_of_reply reply
      | Error msg -> Cli_common.fail_runtime "malformed reply: %s" msg)

let client_cmd =
  Cmd.v
    (Cmd.info "client" ~exits
       ~doc:
         "Send one request to a running daemon and print the framed reply. \
          Exits 0 on an $(i,ok) reply, 1 on error replies of kind \
          exception, timeout, overloaded, expired or draining, 2 on \
          usage/protocol replies, 3 on a model-violation reply")
    Term.(
      const client $ socket_arg $ tcp_arg $ tcp_host_arg
      $ Arg.(
          value
          & pos 0
              (Cli_common.choice_conv
                 [ "health"; "stats"; "sim"; "miss-curve"; "raw" ])
              "health"
          & info [] ~docv:"OP"
              ~doc:"One of: health, stats, sim, miss-curve, raw.")
      $ Arg.(
          value
          & opt Cli_common.policy_conv "lru"
          & info [ "policy"; "p" ] ~docv:"NAME" ~doc:"Policy to simulate.")
      $ Arg.(value & opt int 1024 & info [ "k" ] ~doc:"Cache capacity.")
      $ Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Workload seed.")
      $ Arg.(
          value
          & opt
              (Cli_common.choice_conv Gc_trace.Workload_suite.standard_names)
              "zipf"
          & info [ "workload" ] ~docv:"NAME" ~doc:"Synthetic workload.")
      $ Arg.(
          value
          & opt (some int) None
          & info [ "n" ] ~docv:"N" ~doc:"Trace length (default 20000).")
      $ Arg.(
          value
          & opt (some int) None
          & info [ "universe" ] ~docv:"N" ~doc:"Item universe (default 16384).")
      $ Arg.(
          value
          & opt (some int) None
          & info [ "block-size"; "B" ] ~docv:"N" ~doc:"Block size (default 16).")
      $ Arg.(
          value & flag
          & info [ "check" ] ~doc:"Run the shadow-model audit server-side.")
      $ Arg.(
          value
          & opt ks_conv [ 64; 256; 1024 ]
          & info [ "ks" ] ~docv:"K1,K2,..."
              ~doc:"Capacities for miss-curve.")
      $ Arg.(
          value
          & opt (some string) None
          & info [ "json" ] ~docv:"REQUEST"
              ~doc:"Raw JSON request body for the $(b,raw) op.")
      $ Arg.(
          value
          & opt (some int) None
          & info [ "budget-ms" ] ~docv:"MS"
              ~doc:
                "End-to-end budget propagated with sim/miss-curve \
                 requests; the server refuses (kind $(b,expired)) rather \
                 than execute a request whose budget lapsed in its \
                 queue.")
      $ Arg.(
          value
          & opt float 60.
          & info [ "timeout" ] ~docv:"SECONDS"
              ~doc:"Give up waiting for the reply after $(docv).")
      $ Arg.(
          value & flag
          & info [ "prom" ]
              ~doc:
                "Print the $(b,stats) reply's metric registry in \
                 Prometheus text exposition format instead of JSON.")
      $ Arg.(
          value & flag
          & info [ "json-only" ]
              ~doc:
                "Print the reply as a single JSON line on stdout and \
                 nothing else (no pretty-printing, no stderr \
                 classification) — for scripts; error replies still \
                 carry $(i,kind), $(i,message), and $(i,retry_after_ms) \
                 as fields.")
      $ Arg.(
          value
          & opt int 3
          & info [ "attempts" ] ~docv:"N"
              ~doc:
                "Total tries for retryable failures (refused, timeout, \
                 reset, overloaded) with jittered backoff; requests \
                 without an explicit $(i,id) are stamped with one so a \
                 retried reply can be matched by its id echo.  1 \
                 disables retry.")
      $ Arg.(
          value
          & opt_all string []
          & info [ "endpoint" ] ~docv:"ADDR"
              ~doc:
                "Replica endpoint: a socket path, or $(i,host:port) for \
                 TCP.  Repeatable; with several, requests rotate \
                 round-robin across healthy replicas and transport \
                 failures fail over to the next one within the same \
                 attempt.  Mutually exclusive with \
                 $(b,--socket)/$(b,--tcp).")
      $ Arg.(
          value
          & opt (some int) None
          & info [ "hedge-ms" ] ~docv:"MS"
              ~doc:
                "With two or more $(b,--endpoint)s: fire a second \
                 attempt at another replica when the first has not \
                 answered within $(docv) milliseconds; first reply wins, \
                 the loser is cancelled."))

let () =
  let info = Cmd.info "gcserved" ~exits ~doc:"GC-caching simulation service" in
  exit
    (Cli_common.eval
       (Cmd.group info [ serve_cmd; supervise_cmd; fleet_cmd; client_cmd ]))
