module Clock = Gc_prof.Clock
module Cancel = Gc_exec.Cancel
module Pool = Gc_exec.Pool
module Retry = Gc_exec.Retry
module Client = Gc_serve.Client
module Json = Gc_obs.Json

type config = {
  argv : string array;
  health_addr : Client.addr;
  health_interval : float;
  startup_grace : float;
  wedge_threshold : int;
  restart_window : float;
  max_restarts : int;
  backoff : Retry.policy;
  seed : int;
}

let default_config ~argv ~health_addr =
  {
    argv;
    health_addr;
    health_interval = 0.25;
    startup_grace = 10.;
    wedge_threshold = 8;
    restart_window = 60.;
    max_restarts = 5;
    backoff = { Retry.default with Retry.base_delay = 0.1; max_delay = 5. };
    seed = 0;
  }

(* Per-probe reply budget, seconds. *)
let health_timeout = 2.

(* SIGTERM-to-SIGKILL grace for a wedged child, and how long a
   stop-requested drain may take before SIGKILL, seconds. *)
let term_grace = 5.
let drain_grace = 30.

type event =
  | Spawned of int
  | Became_healthy of int
  | Exited of int * Unix.process_status
  | Wedged of int * int
  | Backing_off of int * float
  | Gave_up of int

let status_string = function
  | Unix.WEXITED c -> Printf.sprintf "exited %d" c
  | Unix.WSIGNALED s -> Printf.sprintf "killed by signal %d" s
  | Unix.WSTOPPED s -> Printf.sprintf "stopped by signal %d" s

let event_string = function
  | Spawned pid -> Printf.sprintf "spawned pid %d" pid
  | Became_healthy pid -> Printf.sprintf "pid %d healthy" pid
  | Exited (pid, st) -> Printf.sprintf "pid %d %s" pid (status_string st)
  | Wedged (pid, n) ->
      Printf.sprintf "pid %d wedged (%d consecutive failed probes)" pid n
  | Backing_off (n, d) -> Printf.sprintf "restart %d in %.3fs" n d
  | Gave_up n -> Printf.sprintf "gave up after %d restarts" n

type outcome = {
  result : [ `Drained | `Gave_up ];
  restarts : int;
}

let kill_if_alive pid signal =
  try Unix.kill pid signal
  with Unix.Unix_error (Unix.ESRCH, _, _) -> ()

(* Has the child exited?  Non-blocking. *)
let reap_nohang pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> None
  | _, status -> Some status
  | exception Unix.Unix_error (Unix.ECHILD, _, _) ->
      Some (Unix.WEXITED 0)
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> None

(* SIGTERM, then wait up to [grace] for a clean exit, then SIGKILL.  The
   drain path uses a long grace; the wedge path a short one. *)
let put_down pid ~grace =
  kill_if_alive pid Sys.sigterm;
  let deadline = Clock.now_s () +. grace in
  let rec await () =
    match reap_nohang pid with
    | Some status -> status
    | None ->
        if Clock.now_s () >= deadline then begin
          kill_if_alive pid Sys.sigkill;
          match Unix.waitpid [] pid with
          | _, status -> status
          | exception Unix.Unix_error ((Unix.ECHILD | Unix.EINTR), _, _) ->
              Unix.WSIGNALED Sys.sigkill
        end
        else begin
          Pool.nap 0.02;
          await ()
        end
  in
  await ()

let health_req = Json.Obj [ ("op", Json.String "health") ]

let probe config =
  match
    Client.request_result ~timeout:health_timeout config.health_addr
      health_req
  with
  | Ok _ -> true
  | Error _ -> false

let run ?(on_event = fun (_ : event) -> ()) ~stop config =
  if Array.length config.argv = 0 then
    invalid_arg "Supervise.run: empty argv";
  if config.max_restarts < 0 then
    invalid_arg "Supervise.run: max_restarts must be >= 0";
  let rng = Gc_trace.Rng.create config.seed in
  let restarts = ref 0 in
  let restart_times = ref [] in
  let stopped () = Cancel.requested stop in
  let spawn () =
    let pid =
      Unix.create_process config.argv.(0) config.argv Unix.stdin Unix.stderr
        Unix.stderr
    in
    on_event (Spawned pid);
    pid
  in
  (* Phase result for one child incarnation. *)
  let monitor pid =
    let startup_deadline = Clock.now_s () +. config.startup_grace in
    let rec starting () =
      if stopped () then `Stop
      else
        match reap_nohang pid with
        | Some status -> `Exited status
        | None ->
            if probe config then `Healthy
            else if Clock.now_s () >= startup_deadline then `Wedge 0
            else begin
              Pool.nap (Float.min 0.05 config.health_interval);
              starting ()
            end
    in
    match starting () with
    | (`Stop | `Exited _ | `Wedge _) as r -> r
    | `Healthy ->
        on_event (Became_healthy pid);
        let rec watching failures =
          if stopped () then `Stop
          else
            match reap_nohang pid with
            | Some status -> `Exited status
            | None ->
                Pool.nap config.health_interval;
                if stopped () then `Stop
                else if probe config then watching 0
                else begin
                  let failures = failures + 1 in
                  if failures >= config.wedge_threshold then `Wedge failures
                  else watching failures
                end
        in
        watching 0
  in
  (* One restart consumes budget from the sliding window; answers the
     backoff delay, or None when the budget is spent. *)
  let budget_restart () =
    let now = Clock.now_s () in
    restart_times :=
      List.filter (fun t -> now -. t < config.restart_window) !restart_times;
    if List.length !restart_times >= config.max_restarts then None
    else begin
      restart_times := now :: !restart_times;
      incr restarts;
      let attempt = List.length !restart_times in
      Some (Retry.delay_for config.backoff ~rng ~attempt)
    end
  in
  let drain pid =
    let status = put_down pid ~grace:drain_grace in
    on_event (Exited (pid, status));
    { result = `Drained; restarts = !restarts }
  in
  let rec incarnation () =
    if stopped () then { result = `Drained; restarts = !restarts }
    else begin
      let pid = spawn () in
      match monitor pid with
      | `Stop -> drain pid
      | `Exited status ->
          on_event (Exited (pid, status));
          after_death ()
      | `Wedge failures ->
          on_event (Wedged (pid, failures));
          let status = put_down pid ~grace:term_grace in
          on_event (Exited (pid, status));
          after_death ()
    end
  and after_death () =
    if stopped () then { result = `Drained; restarts = !restarts }
    else
      match budget_restart () with
      | None ->
          on_event (Gave_up !restarts);
          { result = `Gave_up; restarts = !restarts }
      | Some delay ->
          on_event (Backing_off (!restarts, delay));
          if delay > 0. then Pool.nap delay;
          incarnation ()
  in
  incarnation ()
