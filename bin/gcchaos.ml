(* gcchaos — deterministic chaos drills against the supervised server.

     gcchaos drill --seeds 1,2,3 --verify-repro
     gcchaos storm --seed 1 --verify-repro      # the metastability drill
     gcchaos partition --verify-repro           # the replica-set drill
     GC_CHAOS_SEEDS=1..32 dune build @chaos     # wider sweep, same harness

   One drill = one seed.  The seed derives the whole fault schedule —
   which requests are preceded by a child SIGKILL, where the SIGSTOP
   pause lands, which byte-level network faults the proxy injects, where
   the journal line is torn — and the report contains only facts that
   are functions of that schedule, so a drill is byte-reproducible:
   running the same seed twice must produce the same report
   (--verify-repro checks exactly that).

   What a drill asserts (exit 3 on any violation):
     - every request settles exactly once: an ok reply, a framed error
       reply, or a classified transport error — never a hang, never two;
     - direct requests through the resilient client all succeed even
       though the server is SIGKILLed mid-drill: the supervisor restart
       plus client reconnect-and-retry is invisible to callers;
     - the supervisor's restart count equals the injected kill count
       (a SIGSTOP pause must NOT count: probes stall but the pid lives);
     - after the drain no request is answered;
     - the shutdown manifest reconciles: status drained, queue and
       inflight both zero, and requests <= replies <= requests +
       protocol_faults + shed over the final incarnation's counters;
     - a torn journal append loses exactly the torn tail (load drops it,
       resume truncates and re-appends);
     - a crash between an atomic export's temp write and its rename
       leaves the previous artifact intact.

   gcchaos storm is the companion metastability drill: it saturates a
   one-worker server with hanging jobs and proves (a) that budget-less
   retrying clients collapse goodput to ~zero (the retry storm) and
   (b) that deadline propagation + sojourn shedding + retry budgets +
   server backoff hints restore full goodput once the poison stops —
   with the same byte-reproducibility contract as drill. *)

open Cmdliner

(* This tool's EXIT STATUS entries, shown by every --help page it has. *)
let exits =
  Cli_common.exits
  @ [
      Cmd.Exit.info Cli_common.model_violation
        ~doc:
          "when a drill invariant is violated or a report does \
           not reproduce.";
    ]

module Json = Gc_obs.Json
module Rng = Gc_trace.Rng
module Client = Gc_serve.Client
module Supervise = Gc_resil.Supervise
module Retry = Gc_exec.Retry

(* ------------------------------------------------------------- schedule *)

(* Everything the drill will do, derived from the seed up front.  Draw
   order is fixed: changing it changes every report, so treat it as part
   of the drill's file format. *)
type schedule = {
  kill_at : int list;  (** Request ordinals preceded by a child SIGKILL. *)
  stop_at : int;  (** Ordinal preceded by a SIGSTOP/SIGCONT pause. *)
  net_faults : Gc_fault.Net_proxy.fault array;
      (** One per proxied request, in connection order. *)
  journal_cut : int;  (** Bytes of the torn journal line that reach disk. *)
}

let derive_schedule rng =
  let k1 = 2 + Rng.int rng 3 in
  let k2 = k1 + 5 + Rng.int rng 3 in
  let stop_at = k2 + 3 in
  let corrupt_at = Rng.int_in rng 4 22 in
  let truncate_at = Rng.int_in rng 2 20 in
  let net_faults =
    Gc_fault.Net_proxy.
      [| Pass; Corrupt_byte corrupt_at; Truncate_after truncate_at;
         Delay 0.8; Drop |]
  in
  Rng.shuffle rng net_faults;
  let journal_cut = Rng.int_in rng 1 24 in
  { kill_at = [ k1; k2 ]; stop_at; net_faults; journal_cut }

(* Fault-injection clocks, all chosen together: the proxy's Delay must
   overrun the child's whole-frame budget, and the one-shot client's
   reply wait must outlast the resulting error reply (and bound Drop). *)
let child_frame_timeout = 0.5
let net_request_timeout = 1.2

(* --------------------------------------------------------- drill plumbing *)

(* Stderr-only progress trace (GC_CHAOS_DEBUG=1): pids and timings are
   nondeterministic, so none of this may leak into the report. *)
let debug = lazy (Sys.getenv_opt "GC_CHAOS_DEBUG" <> None)

let dbg fmt =
  Printf.ksprintf
    (fun m -> if Lazy.force debug then Printf.eprintf "gcchaos: %s\n%!" m)
    fmt

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let rm_rf dir =
  match Sys.readdir dir with
  | entries ->
      Array.iter
        (fun e -> try Sys.remove (Filename.concat dir e) with Sys_error _ -> ())
        entries;
      (try Unix.rmdir dir with Unix.Unix_error _ -> ())
  | exception Sys_error _ -> ()

(* A fresh private scratch directory for one seed's run, removed
   afterwards whatever happens. *)
let with_scratch_dir prefix seed f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "%s.%d.%d" prefix (Unix.getpid ()) seed)
  in
  rm_rf dir;
  Unix.mkdir dir 0o700;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

(* Run a blocking supervisor ([Supervise.run] or [Fleet.run]) on a
   thread of its own.  The answer stops it: it requests the drain,
   joins the thread and returns the supervisor's outcome; a supervisor
   that raised fails the run. *)
let supervise_in_background ~what run =
  let stop = Gc_exec.Cancel.create () in
  let outcome = ref (Error (what ^ " thread never ran")) in
  (* The supervisor is single-threaded and blocking by design; the drill
     embeds it in a process-lifetime thread, which is exactly the shape
     the pool rule exempts. *)
  let th =
    Thread.create
      (fun () ->
        outcome :=
          match run ~stop with
          | o -> Ok o
          | exception e -> Error (Printexc.to_string e))
      () [@lint.allow "spawn-outside-pool"]
  in
  fun ~reason ->
    Gc_exec.Cancel.request stop ~reason;
    Thread.join th;
    match !outcome with
    | Ok o -> o
    | Error m -> Cli_common.fail_runtime "%s died: %s" what m

(* After a drain nothing may answer on [sock]. *)
let silent_after_drain sock =
  Result.is_error
    (Client.request_result ~timeout:1. (Client.Unix_path sock)
       (Json.Obj [ ("op", Json.String "health") ]))

let holds ok detail = if ok then Ok () else Error detail

(* One seed's report: its [facts], then each named invariant as a
   boolean.  A violated invariant is also explained on stderr; the run
   is ok when every invariant holds. *)
let verdict ~drill ~seed facts checks =
  let invariants =
    List.map
      (fun (name, r) ->
        match r with
        | Ok () -> (name, Json.Bool true)
        | Error m ->
            Printf.eprintf "gcchaos: %s seed %d invariant %s: %s\n%!" drill
              seed name m;
            (name, Json.Bool false))
      checks
  in
  ( Json.Obj (facts @ [ ("invariants", Json.Obj invariants) ]),
    List.for_all (fun (_, r) -> Result.is_ok r) checks )

(* Supervisor events, folded as they arrive: the drill needs "who is the
   child right now" (to aim signals) and "how many incarnations have
   come up healthy" (to know a restart finished before injecting the
   next fault). *)
type watch = {
  mu : Mutex.t;
  mutable pid : int option;
  mutable healthy : int;
  mutable events : Supervise.event list;
}

let watch_create () =
  { mu = Mutex.create (); pid = None; healthy = 0; events = [] }

let watch_event w ev =
  dbg "supervisor: %s" (Supervise.event_string ev);
  Mutex.lock w.mu;
  w.events <- ev :: w.events;
  (match ev with
  | Supervise.Spawned pid -> w.pid <- Some pid
  | Supervise.Became_healthy _ -> w.healthy <- w.healthy + 1
  | _ -> ());
  Mutex.unlock w.mu

let watch_pid w =
  Mutex.lock w.mu;
  let p = w.pid in
  Mutex.unlock w.mu;
  p

let watch_healthy w =
  Mutex.lock w.mu;
  let h = w.healthy in
  Mutex.unlock w.mu;
  h

(* Wait until the [n]th incarnation has answered a health probe, so a
   signal aimed via [watch_pid] hits a live, serving child — not the
   corpse of the previous one. *)
let await_healthy w n =
  let deadline = Gc_prof.Clock.now_s () +. 30. in
  let rec go () =
    if watch_healthy w >= n then ()
    else if Gc_prof.Clock.now_s () > deadline then
      Cli_common.fail_runtime
        "drill: incarnation %d not healthy within 30s (supervisor stuck?)" n
    else begin
      Gc_exec.Pool.nap 0.02;
      go ()
    end
  in
  go ()

let signal_child w signal =
  match watch_pid w with
  | Some pid -> ( try Unix.kill pid signal with Unix.Unix_error _ -> ())
  | None -> Cli_common.fail_runtime "drill: no child pid to signal"

(* ------------------------------------------------- manifest reconciliation *)

let sum_metric rows name =
  List.fold_left
    (fun acc row ->
      match (Json.member "name" row, Json.member "value" row) with
      | Some (Json.String n), Some (Json.Int v) when n = name -> acc + v
      | _ -> acc)
    0 rows

(* The drained child's manifest must account for every byte the drill
   threw at it; see the module comment for the inequality. *)
let manifest_reconciles path =
  match Json.parse (read_file path) with
  | Error e -> Error ("manifest: " ^ Json.string_of_parse_error e)
  | exception Sys_error m -> Error ("manifest: " ^ m)
  | Ok json -> (
      match Json.member "extra" json with
      | None -> Error "manifest: no extra section"
      | Some extra -> (
          match (Json.member "status" extra, Json.member "server" extra) with
          | Some (Json.String "drained"), Some (Json.Array rows) ->
              let requests = sum_metric rows "requests"
              and replies = sum_metric rows "replies"
              and faults = sum_metric rows "protocol_faults"
              and shed = sum_metric rows "shed"
              and queue = sum_metric rows "queue_depth"
              and inflight = sum_metric rows "inflight" in
              if queue <> 0 then
                Error (Printf.sprintf "queue_depth %d after drain" queue)
              else if inflight <> 0 then
                Error (Printf.sprintf "inflight %d after drain" inflight)
              else if not (requests <= replies) then
                Error
                  (Printf.sprintf "requests %d > replies %d" requests replies)
              else if not (replies <= requests + faults + shed) then
                Error
                  (Printf.sprintf
                     "replies %d > requests %d + faults %d + shed %d" replies
                     requests faults shed)
              else Ok ()
          | Some (Json.String s), _ ->
              Error (Printf.sprintf "manifest status %S, wanted drained" s)
          | _ -> Error "manifest: malformed extra section"))

(* ------------------------------------------------------------ disk drills *)

(* Torn append: arm the hook, watch the append fail, then prove load
   drops exactly the torn tail and resume repairs the file. *)
let journal_drill dir seed cut =
  let path = Filename.concat dir "journal.jsonl" in
  let w = Gc_exec.Journal.create path ~meta:(Json.Obj [ ("drill", Json.Int seed) ]) in
  Gc_exec.Journal.append w "cell-0" (Json.Int 0);
  Gc_exec.Journal.torn_write_after := Some cut;
  let tore =
    match Gc_exec.Journal.append w "cell-1" (Json.Int 1) with
    | () -> false
    | exception Gc_exec.Journal.Torn_write -> true
  in
  Gc_exec.Journal.close w;
  if not tore then Error "armed append did not tear"
  else
    match Gc_exec.Journal.load path with
    | Error e -> Error ("load: " ^ Gc_exec.Journal.string_of_error e)
    | Ok l when not l.torn -> Error "torn tail not detected"
    | Ok l when List.map fst l.entries <> [ "cell-0" ] ->
        Error "torn load lost or invented entries"
    | Ok _ -> (
        match Gc_exec.Journal.resume path with
        | Error e -> Error ("resume: " ^ Gc_exec.Journal.string_of_error e)
        | Ok (_, w2) -> (
            Gc_exec.Journal.append w2 "cell-1" (Json.Int 1);
            Gc_exec.Journal.close w2;
            match Gc_exec.Journal.load path with
            | Ok l2 when (not l2.torn) && List.length l2.entries = 2 -> Ok ()
            | Ok _ -> Error "resume did not repair the tail"
            | Error e -> Error ("reload: " ^ Gc_exec.Journal.string_of_error e)))

(* Crash-before-rename: the previous artifact must survive the crash
   byte-for-byte, and a later write must still land. *)
let export_drill dir =
  let path = Filename.concat dir "artifact.json" in
  Gc_obs.Export.write_json_atomic path (Json.String "before");
  Gc_obs.Export.crash_before_rename := true;
  let crashed =
    match Gc_obs.Export.write_json_atomic path (Json.String "after") with
    | () -> false
    | exception Gc_obs.Export.Crashed_before_rename -> true
  in
  if not crashed then Error "armed export did not crash"
  else
    match Json.parse (read_file path) with
    | Ok (Json.String "before") -> (
        Gc_obs.Export.write_json_atomic path (Json.String "after");
        match Json.parse (read_file path) with
        | Ok (Json.String "after") -> Ok ()
        | _ -> Error "post-crash write did not land")
    | _ -> Error "crash truncated or replaced the artifact"

(* ------------------------------------------------------------- the drill *)

(* Classify a one-shot outcome into the coarse classes that are
   deterministic per fault: a framed reply (ok or error — the server
   answered) vs a classified transport failure. *)
let outcome_class = function
  | Ok _ -> "reply"
  | Error (e : Client.error) -> "transport:" ^ Client.kind_name e.kind

(* The supervision every drill's servers run under, for the server
   [argv] listening on [sock].  SIGSTOP stalls probes for ~0.35s; with
   0.05s probes that is a handful of consecutive failures, so the wedge
   threshold must sit far above it or the pause would masquerade as a
   crash. *)
let drill_supervision ~sock ~seed argv =
  {
    (Supervise.default_config ~argv ~health_addr:(Client.Unix_path sock)) with
    Supervise.health_interval = 0.05;
    startup_grace = 20.;
    wedge_threshold = 200;
    restart_window = 300.;
    max_restarts = 10;
    backoff = { Retry.default with base_delay = 0.05; max_delay = 0.2 };
    seed;
  }

(* Request [i] of the drill and partition mixes: a small sim every
   third request, health otherwise. *)
let mixed_request i =
  if i mod 3 = 0 then
    Json.Obj
      [
        ("op", Json.String "sim"); ("policy", Json.String "lru");
        ("k", Json.Int 64); ("seed", Json.Int i);
        ("workload", Json.String "zipf"); ("n", Json.Int 500);
        ("universe", Json.Int 256);
      ]
  else Json.Obj [ ("op", Json.String "health") ]

(* Requests per drill seed: room for both kills, the pause and the
   sims between them. *)
let drill_requests = 18

let drill ~server_exe ~seed =
  let rng = Rng.create seed in
  let schedule = derive_schedule rng in
  with_scratch_dir "gcchaos" seed @@ fun dir ->
  let sock = Filename.concat dir "serve.sock" in
  let proxy_sock = Filename.concat dir "proxy.sock" in
  let manifest_path = Filename.concat dir "manifest.json" in
  let config =
    drill_supervision ~sock ~seed
      [|
        server_exe; "serve"; "--socket"; sock; "--manifest"; manifest_path;
        "--frame-timeout"; string_of_float child_frame_timeout;
        "--deadline"; "10"; "--workers"; "2"; "--queue-depth"; "32";
      |]
  in
  let watch = watch_create () in
  let drain =
    supervise_in_background ~what:"drill: supervisor"
      (Supervise.run ~on_event:(watch_event watch) config)
  in
  await_healthy watch 1;
  (* Phase 1: direct requests with kill/stop injection.  The resilient
     client must make every restart invisible. *)
  let rc =
    Gc_resil.Resilient_client.create ~timeout:8.
      ~retry:
        { Retry.default with max_attempts = 10; base_delay = 0.05; max_delay = 0.4 }
      ~seed (Client.Unix_path sock)
  in
  let kills = ref 0 in
  let direct_failures = ref 0 in
  let settled = ref 0 in
  for i = 0 to drill_requests - 1 do
    if List.mem i schedule.kill_at then begin
      (* Aim only at an incarnation that has already proven healthy, so
         two kills cannot land on the same pid. *)
      await_healthy watch (!kills + 1);
      signal_child watch Sys.sigkill;
      incr kills
    end;
    if i = schedule.stop_at then begin
      await_healthy watch (!kills + 1);
      signal_child watch Sys.sigstop;
      Gc_exec.Pool.nap 0.35;
      signal_child watch Sys.sigcont
    end;
    dbg "request %d" i;
    (match Gc_resil.Resilient_client.request rc (mixed_request i) with
    | Ok _ -> ()
    | Error f ->
        incr direct_failures;
        Printf.eprintf "gcchaos: seed %d request %d failed: %s\n%!" seed i
          (Gc_resil.Resilient_client.string_of_failure f));
    incr settled
  done;
  Gc_resil.Resilient_client.close rc;
  (* Phase 2: byte-level network faults.  One fresh connection per
     request, so proxy connection ordinal == request ordinal and the
     fault plan is deterministic. *)
  let proxy =
    Gc_fault.Net_proxy.create ~listen:proxy_sock ~upstream:sock
      ~plan:(fun i ->
        if i < Array.length schedule.net_faults then schedule.net_faults.(i)
        else Gc_fault.Net_proxy.Pass)
      ()
  in
  dbg "net phase";
  let net_outcomes =
    Array.mapi
      (fun i _ ->
        dbg "net request %d" i;
        let r =
          Client.request_result ~timeout:net_request_timeout
            (Client.Unix_path proxy_sock)
            (Json.Obj [ ("id", Json.Int (1000 + i)); ("op", Json.String "health") ])
        in
        incr settled;
        outcome_class r)
      schedule.net_faults
  in
  let proxy_conns = Gc_fault.Net_proxy.connections proxy in
  Gc_fault.Net_proxy.stop proxy;
  (* Phase 3: drain through the supervisor, then prove the silence. *)
  dbg "draining";
  let sup_outcome = drain ~reason:"drill complete" in
  let silent = silent_after_drain sock in
  let manifest = manifest_reconciles manifest_path in
  (* Phase 4: disk faults, in-process. *)
  let journal = journal_drill dir seed schedule.journal_cut in
  let export = export_drill dir in
  let expected = drill_requests + Array.length schedule.net_faults in
  verdict ~drill:"drill" ~seed
    [
      ("seed", Json.Int seed);
      ("requests", Json.Int drill_requests);
      ( "kills",
        Json.Array (List.map (fun i -> Json.Int i) schedule.kill_at) );
      ("stop_at", Json.Int schedule.stop_at);
      ( "net_faults",
        Json.Array
          (Array.to_list schedule.net_faults
          |> List.map (fun f ->
                 Json.String (Gc_fault.Net_proxy.fault_string f))) );
      ( "net_outcomes",
        Json.Array
          (Array.to_list net_outcomes |> List.map (fun s -> Json.String s))
      );
      ("journal_cut", Json.Int schedule.journal_cut);
      ("settled", Json.Int !settled);
      ("restarts", Json.Int sup_outcome.Supervise.restarts);
    ]
    [
      ( "every_request_settled",
        holds (!settled = expected)
          (Printf.sprintf "settled %d of %d" !settled expected) );
      ( "direct_requests_all_answered",
        holds (!direct_failures = 0)
          (Printf.sprintf "%d direct failures" !direct_failures) );
      ( "restarts_match_kills",
        holds
          (sup_outcome.Supervise.restarts = !kills
          && sup_outcome.Supervise.result = `Drained)
          (Printf.sprintf "restarts %d, kills %d, %s"
             sup_outcome.Supervise.restarts !kills
             (match sup_outcome.Supervise.result with
             | `Drained -> "drained"
             | `Gave_up -> "gave up")) );
      ("no_reply_after_drain", holds silent "post-drain request was answered");
      ("manifest_reconciles", manifest);
      ( "proxy_connection_per_request",
        holds
          (proxy_conns = Array.length schedule.net_faults)
          (Printf.sprintf "%d proxy connections for %d requests" proxy_conns
             (Array.length schedule.net_faults)) );
      ("journal_tear_recovered", journal);
      ("export_survives_crash", export);
    ]

(* ---------------------------------------------------------------- storm *)

(* The metastability drill.  Two phases against the same poison load —
   a trickle of [broken:hang@0] sims that each pin the single worker for
   deadline+grace, keeping the admission queue full of doomed work:

     naive      overload control off (--codel-target 0) and victim
                clients retrying without budgets: goodput collapses to
                ~zero and STAYS there — every shed turns into another
                retry, which is the metastable failure mode;
     mitigated  sojourn shedding + deadline propagation on, victims
                carry budget_ms and success-coupled retry budgets, and a
                mid-phase SIGKILL proves recovery: once the poison stops
                the system returns to full goodput instead of staying
                collapsed.

   Like [drill], a storm's report contains only facts derived from the
   seed and coarse booleans with wide margins, so the same seed produces
   a byte-identical report (--verify-repro enforces it). *)

let storm_wave_clients = 3
let storm_wave_per_client = 4
let storm_poison_upfront = 24

(* How long the mitigated phase waits, after its first wave, for CoDel's
   first sojourn shed to show in the server's stats. *)
let storm_shed_wait = 5.

let hang_req i =
  Json.Obj
    [
      ("id", Json.Int (9000 + i)); ("op", Json.String "sim");
      ("policy", Json.String "broken:hang@0"); ("k", Json.Int 64);
      ("seed", Json.Int i); ("workload", Json.String "zipf");
      ("n", Json.Int 64); ("universe", Json.Int 64);
    ]

let victim_req ?budget_ms i =
  Json.Obj
    ([
       ("op", Json.String "sim"); ("policy", Json.String "lru");
       ("k", Json.Int 64); ("seed", Json.Int i);
       ("workload", Json.String "zipf"); ("n", Json.Int 500);
       ("universe", Json.Int 256);
     ]
    @ match budget_ms with
      | Some b -> [ ("budget_ms", Json.Int b) ]
      | None -> [])

(* Poison producers: connections that enqueue hangs and never read the
   replies.  Production (4/s) outpaces the single worker's consumption
   (one hang per deadline+grace), so the queue stays saturated until the
   poison stops. *)
type poison = {
  pconns : Client.conn list;
  pstop : bool Atomic.t;
  pfeeder : Thread.t;
}

let start_poison ~sock =
  let send_hang c i =
    match Client.send_result c (hang_req i) with Ok () -> true | Error _ -> false
  in
  let conns =
    List.filter_map
      (fun _ ->
        Result.to_option (Client.connect_result ~timeout:2. (Client.Unix_path sock)))
      [ (); () ]
  in
  List.iteri
    (fun ci c ->
      for i = 0 to (storm_poison_upfront / 2) - 1 do
        ignore (send_hang c ((ci * storm_poison_upfront / 2) + i))
      done)
    conns;
  let stop = Atomic.make false in
  let feeder =
    Thread.create
      (fun () ->
        match Client.connect_result ~timeout:2. (Client.Unix_path sock) with
        | Error _ -> ()
        | Ok c ->
            (* Bounded: the cap only matters if a wave wedges, and then
               the drill's own deadline fails it first. *)
            let i = ref 0 in
            while (not (Atomic.get stop)) && !i < 80 do
              if not (send_hang c (100 + !i)) then Atomic.set stop true;
              incr i;
              Gc_exec.Pool.nap 0.25
            done;
            Client.close c)
      () [@lint.allow "spawn-outside-pool"]
  in
  { pconns = conns; pstop = stop; pfeeder = feeder }

(* Closing the poison connections cancels their queued hangs (the
   disconnect path), so the backlog evaporates instead of being served
   to nobody. *)
let stop_poison p =
  Atomic.set p.pstop true;
  Thread.join p.pfeeder;
  List.iter Client.close p.pconns

let is_ok_reply reply =
  match Gc_serve.Protocol.reply_of_json reply with
  | Ok (_, Gc_serve.Protocol.Ok_result _) -> true
  | _ -> false

(* One fleet of victim clients hammering fast sims through the poison.
   [budgeted] is the whole experiment: [false] retries on raw policy
   (the storm), [true] pays for every retry from a small token bucket
   and honours the server's retry_after_ms hints. *)
let run_wave ~sock ~seed ~budgeted ~budget_ms ~timeout =
  let oks = Array.make storm_wave_clients 0 in
  let threads =
    List.init storm_wave_clients (fun ci ->
        Thread.create
          (fun () ->
            let rc =
              Gc_resil.Resilient_client.create ~timeout
                ~retry:
                  {
                    Retry.default with
                    max_attempts = 3;
                    base_delay = 0.05;
                    max_delay = 0.2;
                  }
                ~retry_budget:
                  (if budgeted then
                     Some (Gc_admit.Token_bucket.create ~capacity:3. ())
                   else None)
                ~seed:((seed * 100) + ci)
                (Client.Unix_path sock)
            in
            for r = 0 to storm_wave_per_client - 1 do
              let req = victim_req ?budget_ms ((ci * storm_wave_per_client) + r) in
              match Gc_resil.Resilient_client.request rc req with
              | Ok reply when is_ok_reply reply -> oks.(ci) <- oks.(ci) + 1
              | Ok _ | Error _ -> ()
            done;
            Gc_resil.Resilient_client.close rc)
          () [@lint.allow "spawn-outside-pool"])
  in
  List.iter Thread.join threads;
  Array.fold_left ( + ) 0 oks

(* Read shed_sojourn off the live registry via the inline stats op (the
   reader answers it even while the worker drowns in hangs). *)
let stats_sojourn_sheds sock =
  match
    Client.request_result ~timeout:2. (Client.Unix_path sock)
      (Json.Obj [ ("op", Json.String "stats") ])
  with
  | Error _ -> 0
  | Ok reply -> (
      match Gc_serve.Protocol.reply_of_json reply with
      | Ok (_, Gc_serve.Protocol.Ok_result result) -> (
          match Json.member "metrics" result with
          | Some (Json.Array rows) -> sum_metric rows "shed_sojourn"
          | _ -> 0)
      | _ -> 0)

type phase_outcome = {
  wave1_ok : int;  (** Goodput during the poison. *)
  wave2_ok : int;  (** Goodput after poison + kill (mitigated only). *)
  sojourn_sheds : int;  (** shed_sojourn mid-poison (mitigated only). *)
  ph_restarts : int;
  ph_silent : bool;  (** No reply after the drain. *)
  ph_manifest : (unit, string) result;
}

let storm_phase ~server_exe ~seed ~mitigated dir =
  let tag = if mitigated then "mitigated" else "naive" in
  let sock = Filename.concat dir (tag ^ ".sock") in
  let manifest_path = Filename.concat dir (tag ^ ".manifest.json") in
  let config =
    drill_supervision ~sock ~seed
      [|
        server_exe; "serve"; "--socket"; sock; "--manifest"; manifest_path;
        "--deadline"; "0.5"; "--workers"; "1"; "--queue-depth"; "16";
        "--codel-target"; (if mitigated then "0.05" else "0");
        "--codel-interval"; "0.25"; "--retry-after-ms"; "40";
        "--seed"; string_of_int seed;
      |]
  in
  let watch = watch_create () in
  let drain =
    supervise_in_background ~what:"storm: supervisor"
      (Supervise.run ~on_event:(watch_event watch) config)
  in
  await_healthy watch 1;
  dbg "storm %s: poisoning" tag;
  let poison = start_poison ~sock in
  dbg "storm %s: wave 1" tag;
  let wave1_ok =
    run_wave ~sock ~seed ~budgeted:mitigated
      ~budget_ms:(if mitigated then Some 1500 else None)
      ~timeout:1.0
  in
  let sojourn_sheds =
    if mitigated then begin
      (* The first sojourn shed comes about 1s into the poison: each
         hang holds the worker for its 0.5s deadline, and CoDel sheds
         only once the sojourn has stayed high for its 0.25s interval,
         around the third dequeue.  A wave refused fast (queue full,
         each client's 3-token budget spent) ends well before that, so
         poll for the shed, up to a bound, rather than read it once.
         The feeder keeps the poison flowing (for up to 20s)
         meanwhile. *)
      let give_up = Gc_prof.Clock.now_s () +. storm_shed_wait in
      let rec poll () =
        let n = stats_sojourn_sheds sock in
        if n >= 1 || Gc_prof.Clock.now_s () >= give_up then n
        else begin
          Gc_exec.Pool.nap 0.1;
          poll ()
        end
      in
      poll ()
    end
    else 0
  in
  stop_poison poison;
  if mitigated then begin
    await_healthy watch 1;
    signal_child watch Sys.sigkill;
    await_healthy watch 2
  end;
  let wave2_ok =
    if mitigated then begin
      dbg "storm %s: wave 2" tag;
      run_wave ~sock ~seed:(seed + 1) ~budgeted:true ~budget_ms:(Some 5000)
        ~timeout:4.0
    end
    else 0
  in
  dbg "storm %s: draining" tag;
  let sup_outcome = drain ~reason:"storm phase complete" in
  {
    wave1_ok;
    wave2_ok;
    sojourn_sheds;
    ph_restarts = sup_outcome.Supervise.restarts;
    ph_silent = silent_after_drain sock;
    ph_manifest = manifest_reconciles manifest_path;
  }

let storm ~server_exe ~seed =
  with_scratch_dir "gcstorm" seed @@ fun dir ->
  let naive = storm_phase ~server_exe ~seed ~mitigated:false dir in
  let mitigated = storm_phase ~server_exe ~seed ~mitigated:true dir in
  let wave_total = storm_wave_clients * storm_wave_per_client in
  verdict ~drill:"storm" ~seed
    [
      ("seed", Json.Int seed);
      ("wave_requests", Json.Int wave_total);
      ("poison_upfront", Json.Int storm_poison_upfront);
    ]
    [
      (* ~0 goodput, with a one-success margin so a scheduling fluke
         cannot flap the byte-identical report. *)
      ( "naive_storm_collapses",
        holds
          (naive.wave1_ok * 10 <= wave_total)
          (Printf.sprintf "naive goodput %d of %d" naive.wave1_ok wave_total) );
      ( "naive_restarts_zero",
        holds (naive.ph_restarts = 0)
          (Printf.sprintf "%d restarts without kills" naive.ph_restarts) );
      ("naive_manifest_reconciles", naive.ph_manifest);
      ( "naive_silent_after_drain",
        holds naive.ph_silent "post-drain request was answered" );
      ( "mitigated_sojourn_shedding",
        holds
          (mitigated.sojourn_sheds >= 1)
          (Printf.sprintf
             "CoDel never shed by sojourn within %gs of sustained poison"
             storm_shed_wait) );
      ( "mitigated_recovers_goodput",
        holds
          (mitigated.wave2_ok = wave_total)
          (Printf.sprintf "recovered goodput %d of %d" mitigated.wave2_ok
             wave_total) );
      ( "mitigated_restarts_match_kills",
        holds (mitigated.ph_restarts = 1)
          (Printf.sprintf "restarts %d, kills 1" mitigated.ph_restarts) );
      ("mitigated_manifest_reconciles", mitigated.ph_manifest);
      ( "mitigated_silent_after_drain",
        holds mitigated.ph_silent "post-drain request was answered" );
    ]

(* ------------------------------------------------------------ partition *)

(* The replica-set drill: three supervised replicas (a {!Gc_resil.Fleet})
   behind one resilient client over the set, and per seed every
   replica is hurt a different way — one SIGKILLed (the supervisor must
   restart it, the client must fail over), one SIGSTOP-paused (alive but
   silent: only a hedged request gets an answer before any timeout), and
   one network-degraded behind a byte-holding proxy (first byte through,
   then a stall past the replica's whole-frame budget — again the
   hedge's case).  The client must deliver every request's answer
   anyway, with zero failures, while the hedge/failover counters prove
   which mechanism did the work.

   Exact hedge and failover counts are wall-clock races, so — unlike the
   seed-derived victim assignments and fault ordinals — they may only
   enter the report as coarse booleans (fired at least once, wins
   bounded by hedges), or the byte-reproducibility contract would
   flap. *)

let partition_replicas = 3

(* Far below the 2s request timeout (the hedge answers long before
   anyone gives up) and far above a healthy reply (a fast primary never
   wastes a hedge). *)
let partition_hedge_delay = 0.15

(* The proxy stall must overrun the replica's whole-frame budget: the
   server cuts the degraded frame itself, while the hedge has already
   won elsewhere. *)
let partition_stall = 0.9

type partition_schedule = {
  p_kill : int;  (** Replica SIGKILLed once. *)
  p_stop : int;  (** Replica SIGSTOP-paused for a request window. *)
  p_degrade : int;  (** Replica reached through the stalling proxy. *)
  p_kill_at : int;  (** Ordinal preceded by the SIGKILL. *)
  p_stop_from : int;
  p_stop_len : int;
  p_degrade_from : int;
  p_degrade_len : int;
}

(* Fixed draw order, like [derive_schedule]: part of the file format.
   The windows are spaced so each fault begins against a fleet that has
   finished absorbing the previous one. *)
let derive_partition rng =
  let victims = [| 0; 1; 2 |] in
  Rng.shuffle rng victims;
  let p_kill_at = 3 + Rng.int rng 3 in
  let p_stop_from = p_kill_at + 4 + Rng.int rng 2 in
  let p_degrade_from = p_stop_from + 5 + Rng.int rng 2 in
  {
    p_kill = victims.(0);
    p_stop = victims.(1);
    p_degrade = victims.(2);
    p_kill_at;
    p_stop_from;
    p_stop_len = 3;
    p_degrade_from;
    p_degrade_len = 4;
  }

(* A fleet member's manifest must name its replica: the drill's proof
   that [--name] flows through to the shutdown artifact. *)
let manifest_names_replica path name =
  match Json.parse (read_file path) with
  | Error e -> Error ("manifest: " ^ Json.string_of_parse_error e)
  | exception Sys_error m -> Error ("manifest: " ^ m)
  | Ok json -> (
      match Json.member "extra" json with
      | None -> Error "manifest: no extra section"
      | Some extra -> (
          match Json.member "replica" extra with
          | Some (Json.String n) when n = name -> Ok ()
          | Some (Json.String n) ->
              Error (Printf.sprintf "manifest names replica %S, wanted %S" n name)
          | _ -> Error "manifest: no replica field"))

(* Requests per partition seed: room for all three fault windows. *)
let partition_requests = 26

let partition ~server_exe ~seed =
  let module Rc = Gc_resil.Resilient_client in
  let module Pool = Gc_resil.Endpoint_pool in
  let requests = partition_requests in
  let rng = Rng.create seed in
  let s = derive_partition rng in
  with_scratch_dir "gcpart" seed @@ fun dir ->
  let base = Filename.concat dir "part.sock" in
  let sock i = Gc_resil.Fleet.replica_socket ~base i in
  let name i = Printf.sprintf "replica-%d" i in
  let manifest_path i =
    Filename.concat dir (Printf.sprintf "part.%d.manifest.json" i)
  in
  let proxy_sock = Filename.concat dir "proxy.sock" in
  let configs =
    Array.init partition_replicas (fun i ->
        (* Distinct per-replica seeds: backoff jitter must never
           synchronize across the set. *)
        drill_supervision ~sock:(sock i)
          ~seed:((seed * partition_replicas) + i)
          [|
            server_exe; "serve"; "--socket"; sock i; "--name"; name i;
            "--manifest"; manifest_path i;
            "--frame-timeout"; string_of_float child_frame_timeout;
            "--deadline"; "10"; "--workers"; "2"; "--queue-depth"; "32";
          |])
  in
  let watches = Array.init partition_replicas (fun _ -> watch_create ()) in
  let drain =
    supervise_in_background ~what:"partition: fleet"
      (Gc_resil.Fleet.run
         ~on_event:(fun ~replica ev -> watch_event watches.(replica) ev)
         configs)
  in
  Array.iter (fun w -> await_healthy w 1) watches;
  (* The degraded replica is reached through the proxy; until armed it
     forwards verbatim, so the healthy phases never feel it.  Faults are
     per connection, so arming only bites fresh dials — the drill drops
     the client's cached connections at both window edges. *)
  let degraded = Atomic.make false in
  let proxy =
    Gc_fault.Net_proxy.create ~listen:proxy_sock ~upstream:(sock s.p_degrade)
      ~plan:(fun _ ->
        if Atomic.get degraded then Gc_fault.Net_proxy.Delay partition_stall
        else Gc_fault.Net_proxy.Pass)
      ()
  in
  let endpoints =
    List.init partition_replicas (fun i ->
        Client.Unix_path (if i = s.p_degrade then proxy_sock else sock i))
  in
  let mc =
    Rc.create_set ~timeout:2.0
      ~retry:
        { Retry.default with max_attempts = 8; base_delay = 0.05; max_delay = 0.4 }
      ~hedge:partition_hedge_delay
      ~pool_config:
        {
          (* Rotation, not p2c: routing order must be a function of the
             request order alone for the report to reproduce. *)
          Pool.p2c = false;
          (* Tight re-probe backoff so the killed replica is due again
             within the drill's own timescale. *)
          reprobe_after = 0.05;
          reprobe_max = 0.2;
        }
      ~seed endpoints
  in
  let failures = ref 0 in
  let oks = ref 0 in
  let settled = ref 0 in
  let recovered = ref false in
  for i = 0 to requests - 1 do
    if i = s.p_kill_at then begin
      await_healthy watches.(s.p_kill) 1;
      signal_child watches.(s.p_kill) Sys.sigkill
    end;
    if i = s.p_stop_from then signal_child watches.(s.p_stop) Sys.sigstop;
    if i = s.p_stop_from + s.p_stop_len then
      signal_child watches.(s.p_stop) Sys.sigcont;
    if i = s.p_degrade_from then begin
      (* Heal the killed replica before the next fault begins: its
         restart must already be finished (restart count 1 at drain),
         and the client's out-of-band re-probe must return the Suspect
         endpoint to Up — the recovery half of the failover story. *)
      await_healthy watches.(s.p_kill) 2;
      Rc.probe mc;
      recovered := Pool.state (Rc.pool mc) s.p_kill = Pool.Up;
      Atomic.set degraded true;
      Rc.close mc
    end;
    if i = s.p_degrade_from + s.p_degrade_len then begin
      Atomic.set degraded false;
      Rc.close mc
    end;
    dbg "partition request %d" i;
    (match Rc.request mc (mixed_request i) with
    | Ok reply -> if is_ok_reply reply then incr oks
    | Error f ->
        incr failures;
        Printf.eprintf "gcchaos: partition seed %d request %d failed: %s\n%!"
          seed i
          (Rc.string_of_failure f));
    incr settled
  done;
  let failovers = Rc.failovers mc
  and hedges = Rc.hedges mc
  and hedge_wins = Rc.hedge_wins mc in
  Rc.close mc;
  Gc_fault.Net_proxy.stop proxy;
  dbg "partition draining";
  let fleet_outcome = drain ~reason:"partition drill complete" in
  let restarts =
    Array.map
      (fun (o : Supervise.outcome) -> o.Supervise.restarts)
      fleet_outcome.Gc_resil.Fleet.replicas
  in
  let silent = Array.init partition_replicas (fun i -> silent_after_drain (sock i)) in
  let manifests =
    let rec go i =
      if i >= partition_replicas then Ok ()
      else
        match
          Result.bind
            (manifest_reconciles (manifest_path i))
            (fun () -> manifest_names_replica (manifest_path i) (name i))
        with
        | Ok () -> go (i + 1)
        | Error m -> Error (Printf.sprintf "replica %d: %s" i m)
    in
    go 0
  in
  verdict ~drill:"partition" ~seed
    [
      ("seed", Json.Int seed);
      ("requests", Json.Int requests);
      ("kill_replica", Json.Int s.p_kill);
      ("stop_replica", Json.Int s.p_stop);
      ("degrade_replica", Json.Int s.p_degrade);
      ("kill_at", Json.Int s.p_kill_at);
      ( "stop_window",
        Json.Array [ Json.Int s.p_stop_from; Json.Int s.p_stop_len ] );
      ( "degrade_window",
        Json.Array [ Json.Int s.p_degrade_from; Json.Int s.p_degrade_len ] );
      ("settled", Json.Int !settled);
      ( "restarts",
        Json.Array (Array.to_list restarts |> List.map (fun r -> Json.Int r))
      );
    ]
    [
      ( "every_request_settled",
        holds (!settled = requests)
          (Printf.sprintf "settled %d of %d" !settled requests) );
      ( "zero_failed_requests",
        holds
          (!failures = 0 && !oks = requests)
          (Printf.sprintf "%d failures, %d ok replies of %d" !failures !oks
             requests) );
      ( "restarts_isolated_to_kill",
        holds
          (restarts.(s.p_kill) = 1
          && restarts.(s.p_stop) = 0
          && restarts.(s.p_degrade) = 0
          && fleet_outcome.Gc_resil.Fleet.result = `Drained)
          (Printf.sprintf "restarts kill=%d stop=%d degrade=%d, %s"
             restarts.(s.p_kill) restarts.(s.p_stop)
             restarts.(s.p_degrade)
             (match fleet_outcome.Gc_resil.Fleet.result with
             | `Drained -> "drained"
             | `All_gave_up -> "all gave up")) );
      ( "killed_replica_reprobed_up",
        holds !recovered "killed replica not Up after its re-probe" );
      ( "failover_covered_the_kill",
        holds (failovers >= 1) "no failover despite a SIGKILLed replica" );
      ("hedges_fired", holds (hedges >= 1) "no hedge despite a stalled replica");
      ( "hedge_wins_bounded",
        holds
          (hedge_wins >= 1 && hedge_wins <= hedges)
          (Printf.sprintf "%d hedge wins of %d hedges" hedge_wins hedges) );
      ("replica_manifests_reconcile", manifests);
      ( "silent_after_drain",
        holds
          (Array.for_all Fun.id silent)
          "a replica answered after the fleet drained" );
    ]

(* ----------------------------------------------------------------- CLI *)

let parse_seeds s =
  match
    String.split_on_char ',' s |> List.map String.trim
    |> List.filter (fun x -> x <> "")
    |> List.map int_of_string
  with
  | [] -> Cli_common.fail_usage "no seeds in %S" s
  | seeds -> seeds
  | exception Failure _ ->
      Cli_common.fail_usage "seeds must be comma-separated integers, got %S" s

let default_server () =
  let dir = Filename.dirname Sys.executable_name in
  let candidates =
    [ Filename.concat dir "gcserved.exe"; Filename.concat dir "gcserved" ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> "gcserved"

(* What differs between the three drill commands.  Everything else —
   seed parsing, the server lookup, the per-seed run, the --verify-repro
   rerun and compare, the combined report, and the exit — is
   [run_drills]. *)
type drill_spec = {
  name : string;  (** Subcommand, and the noun of its stderr lines. *)
  doc : string;
  verb : string;  (** Progress line: "gcchaos: VERB seed N". *)
  seed_flags : string list;
  default_seeds : int list;
  seed_derives : string;  (** What one seed fixes, for the help text. *)
  requests : int option;  (** Requests per seed, for the combined report. *)
  tool : string;  (** The combined report's "tool". *)
  key : string;  (** The combined report's list of per-seed reports. *)
  run : server_exe:string -> seed:int -> Json.t * bool;
}

let run_drills spec seeds server report_path verify_repro =
  let seeds =
    match seeds with
    | Some s -> parse_seeds s
    | None -> (
        match Sys.getenv_opt "GC_CHAOS_SEEDS" with
        | Some s -> parse_seeds s
        | None -> spec.default_seeds)
  in
  let server_exe =
    match server with Some p -> p | None -> default_server ()
  in
  if not (Sys.file_exists server_exe) then
    Cli_common.fail_usage "server executable %s not found (--server)" server_exe;
  let run seed = spec.run ~server_exe ~seed in
  let failures = ref 0 in
  let reports =
    List.map
      (fun seed ->
        Printf.eprintf "gcchaos: %s seed %d\n%!" spec.verb seed;
        let report, ok = run seed in
        if not ok then incr failures;
        if verify_repro then begin
          let again, _ = run seed in
          if Json.to_string again <> Json.to_string report then begin
            Printf.eprintf
              "gcchaos: %s seed %d is NOT reproducible\n\
              \  first:  %s\n\
              \  second: %s\n\
               %!"
              spec.name seed (Json.to_string report) (Json.to_string again);
            incr failures
          end
        end;
        report)
      seeds
  in
  let combined =
    Json.Obj
      ([ ("tool", Json.String spec.tool) ]
      @ (match spec.requests with
        | Some n -> [ ("requests", Json.Int n) ]
        | None -> [])
      @ [
          ("verify_repro", Json.Bool verify_repro);
          (spec.key, Json.Array reports);
        ])
  in
  print_endline (Json.to_string combined);
  (match report_path with
  | Some path -> Gc_obs.Export.write_json_atomic path combined
  | None -> ());
  if !failures > 0 then
    Cli_common.fail_model "%d %s seed(s) violated invariants" !failures
      spec.name;
  Cli_common.ok

let drill_cmd spec =
  let seeds_list = String.concat "," (List.map string_of_int spec.default_seeds) in
  Cmd.v
    (Cmd.info spec.name ~exits ~doc:spec.doc)
    Term.(
      const (run_drills spec)
      $ Arg.(
          value
          & opt (some string) None
          & info spec.seed_flags ~docv:"N,N,..."
              ~doc:
                (Printf.sprintf
                   "Seeds (default: $(b,GC_CHAOS_SEEDS) from the \
                    environment, else %s).  Each seed derives %s."
                   seeds_list spec.seed_derives))
      $ Arg.(
          value
          & opt (some string) None
          & info [ "server" ] ~docv:"EXE"
              ~doc:
                "The gcserved executable to supervise (default: the \
                 gcserved next to this binary).")
      $ Arg.(
          value
          & opt (some string) None
          & info [ "report" ] ~docv:"FILE"
              ~doc:"Also write the combined JSON report to $(docv).")
      $ Arg.(
          value & flag
          & info [ "verify-repro" ]
              ~doc:
                "Run every seed twice and require byte-identical \
                 reports — the determinism contract, enforced."))

let drills =
  [
    {
      name = "drill";
      doc =
        "Run deterministic chaos drills: crash, pause, corrupt, tear — \
         then assert every recovery invariant";
      verb = "drilling";
      seed_flags = [ "seeds" ];
      default_seeds = [ 1; 2; 3 ];
      seed_derives = "an independent fault schedule";
      requests = Some drill_requests;
      tool = "gcchaos";
      key = "drills";
      run = drill;
    };
    {
      name = "storm";
      doc =
        "Run the metastability drill: prove retry storms collapse a \
         naive server and that budgets + sojourn shedding recover it";
      verb = "storming";
      seed_flags = [ "seeds"; "seed" ];
      default_seeds = [ 1 ];
      seed_derives =
        "the server's hint jitter and every client's backoff schedule";
      requests = None;
      tool = "gcchaos storm";
      key = "storms";
      run = storm;
    };
    {
      name = "partition";
      doc =
        "Run the replica-set drill: kill, pause, and degrade one \
         replica each of a supervised fleet of three, and prove the \
         resilient client's failover and hedging hide all of it";
      verb = "partitioning";
      seed_flags = [ "seeds" ];
      default_seeds = [ 1; 2; 3 ];
      seed_derives = "the victim assignments and fault windows";
      requests = Some partition_requests;
      tool = "gcchaos partition";
      key = "partitions";
      run = partition;
    };
  ]

let () =
  exit
    (Cli_common.eval
       (Cmd.group
          (Cmd.info "gcchaos" ~exits ~version:"%%VERSION%%"
             ~doc:"Deterministic chaos drills for the gcserved stack")
          (List.map drill_cmd drills)))
