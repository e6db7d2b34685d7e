(* The resilience layer under test: Retry's deterministic backoff
   schedule (recorded via an injected sleep, never slept), the Breaker
   state machine over a sliding window on a stepped clock,
   Resilient_client against real
   in-process servers (reconnect across a restart, refused
   classification, no breaker on one endpoint, breaker fast-fail on a
   replica set), and Supervise end-to-end with the
   real ../bin/gcserved.exe child — SIGKILL then a clean drain with
   exactly one restart, and the crash-loop give-up. *)

module Json = Gc_obs.Json
module Rng = Gc_trace.Rng
module Retry = Gc_exec.Retry
module Breaker = Gc_resil.Breaker
module Rc = Gc_resil.Resilient_client
module Supervise = Gc_resil.Supervise
module Fleet = Gc_resil.Fleet
module Pool = Gc_resil.Endpoint_pool
module Server = Gc_serve.Server
module Client = Gc_serve.Client

(* ----------------------------------------------------------------- retry *)

let fixed ?(jitter = 0.) ?(max_attempts = 6) () =
  { Retry.max_attempts; base_delay = 0.1; max_delay = 0.4; jitter }

(* Run [Retry.run] with a recording sleep; returns (result, sleeps). *)
let record_run ?policy ~seed ~retryable f =
  let sleeps = ref [] in
  let sleep d = sleeps := d :: !sleeps in
  let r = Retry.run ?policy ~sleep ~rng:(Rng.create seed) ~retryable f in
  (r, List.rev !sleeps)

let test_retry_caps_and_doubles () =
  let r, sleeps =
    record_run ~policy:(fixed ()) ~seed:1
      ~retryable:(fun _ -> true)
      (fun ~attempt:_ -> Error "down")
  in
  (match r with
  | Error { Retry.attempts = 6; last_error = "down" } -> ()
  | Error g -> Alcotest.failf "gave up after %d attempts" g.Retry.attempts
  | Ok _ -> Alcotest.fail "succeeded out of thin air");
  Alcotest.(check (list (float 1e-9)))
    "doubling, capped at max_delay"
    [ 0.1; 0.2; 0.4; 0.4; 0.4 ]
    sleeps

let test_retry_jitter_deterministic () =
  let go () =
    record_run ~policy:(fixed ~jitter:0.25 ()) ~seed:42
      ~retryable:(fun _ -> true)
      (fun ~attempt:_ -> Error "down")
  in
  let _, first = go () in
  let _, again = go () in
  Alcotest.(check (list (float 1e-12))) "same seed, same schedule" first again;
  List.iteri
    (fun i d ->
      let full = Float.min 0.4 (0.1 *. Float.pow 2. (float_of_int i)) in
      Alcotest.(check bool)
        (Printf.sprintf "sleep %d within [0.75, 1] of %g" i full)
        true
        (d >= (0.75 *. full) -. 1e-9 && d <= full +. 1e-9))
    first

let test_retry_stops_on_success () =
  let calls = ref 0 in
  let r, sleeps =
    record_run ~policy:(fixed ()) ~seed:7
      ~retryable:(fun _ -> true)
      (fun ~attempt ->
        incr calls;
        if attempt < 3 then Error "flaky" else Ok attempt)
  in
  Alcotest.(check int) "succeeded on attempt 3" 3 (match r with Ok a -> a | Error _ -> -1);
  Alcotest.(check int) "three calls" 3 !calls;
  Alcotest.(check int) "two sleeps" 2 (List.length sleeps)

let test_retry_respects_classification () =
  let calls = ref 0 in
  let r, sleeps =
    record_run ~policy:(fixed ()) ~seed:7
      ~retryable:(fun e -> e <> "fatal")
      (fun ~attempt:_ ->
        incr calls;
        Error "fatal")
  in
  (match r with
  | Error { Retry.attempts = 1; last_error = "fatal"; _ } -> ()
  | _ -> Alcotest.fail "a non-retryable error must be final");
  Alcotest.(check int) "one call, no sleeps" 1 !calls;
  Alcotest.(check (list (float 0.))) "no sleeps" [] sleeps

(* --------------------------------------------------------------- breaker *)

(* The breaker's window (20), minimum samples (5), threshold (0.5) and
   cooldown (1s) are constants; its clock is the [~now] each call
   passes, so these tests step time instead of sleeping through the
   cooldown. *)

let trip b ~now =
  (* Two failures in five stay below the 0.5 threshold; the sixth
     outcome, a third failure, meets it exactly. *)
  List.iter
    (fun ok -> Breaker.record b ~now ~ok)
    [ true; false; true; false; true ];
  Alcotest.(check string)
    "two of five failing stays closed" "closed"
    (Breaker.state_name (Breaker.state b));
  Breaker.record b ~now ~ok:false

let state_of b = Breaker.state_name (Breaker.state b)

let test_breaker_trips_on_rate () =
  let b = Breaker.create () in
  Alcotest.(check bool) "closed allows" true (Breaker.allow b ~now:0.);
  trip b ~now:0.;
  Alcotest.(check string) "open" "open" (state_of b);
  Alcotest.(check bool) "open refuses" false (Breaker.allow b ~now:0.)

let test_breaker_needs_min_samples () =
  let b = Breaker.create () in
  for _ = 1 to 4 do
    Breaker.record b ~now:0. ~ok:false
  done;
  Alcotest.(check string)
    "four failures alone cannot trip it" "closed" (state_of b);
  Alcotest.(check bool) "still allows" true (Breaker.allow b ~now:0.);
  Breaker.record b ~now:0. ~ok:false;
  Alcotest.(check string) "the fifth sample trips it" "open" (state_of b)

let test_breaker_half_open_probe () =
  let b = Breaker.create () in
  trip b ~now:10.;
  Alcotest.(check bool) "open refuses" false (Breaker.allow b ~now:10.);
  Alcotest.(check bool)
    "still refuses just short of the cooldown" false
    (Breaker.allow b ~now:10.999);
  Alcotest.(check bool)
    "cooldown elapses: one probe" true
    (Breaker.allow b ~now:11.);
  Alcotest.(check bool)
    "second concurrent probe refused" false
    (Breaker.allow b ~now:11.);
  Breaker.record b ~now:11. ~ok:true;
  Alcotest.(check string) "probe success closes" "closed" (state_of b);
  Alcotest.(check bool) "closed again" true (Breaker.allow b ~now:11.)

let test_breaker_half_open_failure_reopens () =
  let b = Breaker.create () in
  trip b ~now:10.;
  Alcotest.(check bool) "probe allowed" true (Breaker.allow b ~now:11.);
  Breaker.record b ~now:11.5 ~ok:false;
  Alcotest.(check string) "probe failure reopens" "open" (state_of b);
  Alcotest.(check bool)
    "refusing again for a new cooldown" false
    (Breaker.allow b ~now:12.4);
  Alcotest.(check bool)
    "the cooldown counts from the failed probe" true
    (Breaker.allow b ~now:12.5)

let test_breaker_half_open_race () =
  (* The half-open probe slot under real contention: eight threads
     released together against a cooled-down breaker, and the slot must
     admit exactly one of them. *)
  let b = Breaker.create () in
  trip b ~now:0.;
  let go = Atomic.make false in
  let granted = Atomic.make 0 in
  let threads =
    List.init 8 (fun _ ->
        Thread.create
          (fun () ->
            while not (Atomic.get go) do
              Thread.yield ()
            done;
            if Breaker.allow b ~now:1. then Atomic.incr granted)
          ())
  in
  Atomic.set go true;
  List.iter Thread.join threads;
  Alcotest.(check int) "exactly one probe admitted" 1 (Atomic.get granted);
  Alcotest.(check string)
    "still half-open until the probe reports" "half-open" (state_of b);
  Breaker.record b ~now:1. ~ok:true;
  Alcotest.(check string) "probe success closes" "closed" (state_of b)

(* ------------------------------------------------------ resilient client *)

let sock_seq = ref 0

let fresh_sock () =
  incr sock_seq;
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "gcresil-%d-%d.sock" (Unix.getpid ()) !sock_seq)

let tiny_server path =
  Server.create
    { Server.default_config with Server.socket_path = Some path; workers = 1 }

let health = Json.Obj [ ("op", Json.String "health") ]

let fast_retry =
  { Retry.default with Retry.max_attempts = 2; base_delay = 0.01; max_delay = 0.02 }

let test_rc_round_trip () =
  let path = fresh_sock () in
  let t = tiny_server path in
  Fun.protect
    ~finally:(fun () -> Server.drain t)
    (fun () ->
      let rc = Rc.create ~timeout:5. (Client.Unix_path path) in
      (match Rc.request rc health with
      | Ok reply -> (
          match Gc_serve.Protocol.reply_of_json reply with
          | Ok (_, Gc_serve.Protocol.Ok_result _) -> ()
          | Ok (_, Gc_serve.Protocol.Err (k, m)) ->
              Alcotest.failf "error reply %s: %s" k m
          | Error m -> Alcotest.failf "malformed reply: %s" m)
      | Error f -> Alcotest.failf "request failed: %s" (Rc.string_of_failure f));
      Alcotest.(check int) "no retries on a healthy server" 0 (Rc.retries rc);
      Alcotest.(check int) "no reconnects" 0 (Rc.reconnects rc);
      Rc.close rc)

let test_rc_reconnects_across_restart () =
  let path = fresh_sock () in
  let rc = Rc.create ~timeout:5. (Client.Unix_path path) in
  let t1 = tiny_server path in
  (match Rc.request rc health with
  | Ok _ -> ()
  | Error f -> Alcotest.failf "first request: %s" (Rc.string_of_failure f));
  Server.drain t1;
  (* Same path, new incarnation: the cached connection is now dead and
     the client must ride the reset without surfacing it. *)
  let t2 = tiny_server path in
  Fun.protect
    ~finally:(fun () -> Server.drain t2)
    (fun () ->
      (match Rc.request rc health with
      | Ok _ -> ()
      | Error f ->
          Alcotest.failf "post-restart request: %s" (Rc.string_of_failure f));
      Alcotest.(check bool)
        (Printf.sprintf "reconnected (%d)" (Rc.reconnects rc))
        true
        (Rc.reconnects rc >= 1);
      Rc.close rc)

let test_rc_refused_is_classified () =
  let rc = Rc.create ~retry:fast_retry (Client.Unix_path (fresh_sock ())) in
  (match Rc.request rc health with
  | Error (Rc.Transport ({ Client.kind = Client.Refused; _ }, attempts)) ->
      Alcotest.(check int) "spent the whole policy" 2 attempts
  | Error f -> Alcotest.failf "wrong failure: %s" (Rc.string_of_failure f)
  | Ok _ -> Alcotest.fail "nothing was listening");
  Rc.close rc

let test_rc_one_endpoint_has_no_breaker () =
  (* Seven refused attempts in one request would trip a default breaker
     after five; a lone endpoint has nowhere else to go, so the client
     keeps dialing and reports the transport failure. *)
  let rc =
    Rc.create_set
      ~retry:{ fast_retry with Retry.max_attempts = 7 }
      [ Client.Unix_path (fresh_sock ()) ]
  in
  (match Rc.request rc health with
  | Error (Rc.Transport ({ Client.kind = Client.Refused; _ }, attempts)) ->
      Alcotest.(check int) "spent the whole policy" 7 attempts
  | Error f -> Alcotest.failf "wrong failure: %s" (Rc.string_of_failure f)
  | Ok _ -> Alcotest.fail "nothing was listening");
  Rc.close rc

let test_rc_breaker_fast_fails () =
  (* Each request makes two rounds over two dead replicas: two refusals
     per breaker.  The third request's first round brings each to the
     default five samples and trips both; its second round is refused by
     both breakers before anything is dialed. *)
  let rc =
    Rc.create_set ~retry:fast_retry
      [ Client.Unix_path (fresh_sock ()); Client.Unix_path (fresh_sock ()) ]
  in
  let outcome () =
    match Rc.request rc health with
    | Error (Rc.Transport _) -> "transport"
    | Error Rc.Open_circuit -> "open"
    | Error f -> Rc.string_of_failure f
    | Ok _ -> "ok"
  in
  let outcomes = List.init 3 (fun _ -> outcome ()) in
  Alcotest.(check (list string))
    "transport, transport, then fail fast"
    [ "transport"; "transport"; "open" ]
    outcomes;
  Rc.close rc

(* -------------------------------------------------------------- supervise *)

let gcserved = "../bin/gcserved.exe"

type watch = {
  mu : Mutex.t;
  mutable events : Supervise.event list;
  mutable pid : int option;
  mutable healthy : int;
}

let watch_create () =
  { mu = Mutex.create (); events = []; pid = None; healthy = 0 }

let watch_event w ev =
  Mutex.lock w.mu;
  w.events <- ev :: w.events;
  (match ev with
  | Supervise.Spawned pid -> w.pid <- Some pid
  | Supervise.Became_healthy _ -> w.healthy <- w.healthy + 1
  | _ -> ());
  Mutex.unlock w.mu

let await ?(timeout = 20.) ~what pred =
  let give_up = Unix.gettimeofday () +. timeout in
  let rec go () =
    if pred () then ()
    else if Unix.gettimeofday () > give_up then
      Alcotest.failf "timed out waiting for %s" what
    else begin
      Thread.delay 0.02;
      go ()
    end
  in
  go ()

let supervise_config ~path ~seed =
  {
    (Supervise.default_config
       ~argv:[| gcserved; "serve"; "--socket"; path; "--workers"; "1" |]
       ~health_addr:(Client.Unix_path path))
    with
    Supervise.health_interval = 0.05;
    backoff =
      { Retry.default with Retry.base_delay = 0.02; max_delay = 0.05 };
    seed;
  }

let test_supervise_restarts_after_kill () =
  let path = fresh_sock () in
  let w = watch_create () in
  let stop = Gc_exec.Cancel.create () in
  let outcome = ref None in
  let th =
    Thread.create
      (fun () ->
        outcome :=
          Some (Supervise.run ~on_event:(watch_event w) ~stop
                  (supervise_config ~path ~seed:1)))
      ()
  in
  await ~what:"first healthy child" (fun () -> w.healthy >= 1);
  (match w.pid with
  | Some pid -> Unix.kill pid Sys.sigkill
  | None -> Alcotest.fail "no child pid");
  await ~what:"restarted child healthy" (fun () -> w.healthy >= 2);
  Gc_exec.Cancel.request stop ~reason:"test over";
  Thread.join th;
  (match !outcome with
  | Some { Supervise.result = `Drained; restarts = 1 } -> ()
  | Some { Supervise.result = `Drained; restarts } ->
      Alcotest.failf "drained with %d restarts, wanted 1" restarts
  | Some { Supervise.result = `Gave_up; _ } -> Alcotest.fail "gave up"
  | None -> Alcotest.fail "no outcome");
  Alcotest.(check bool) "socket gone after drain" false (Sys.file_exists path)

let test_supervise_gives_up_on_crash_loop () =
  (* A socket path whose directory does not exist: every incarnation
     dies at bind, and the sliding-window budget must stop the flapping
     at exactly max_restarts. *)
  let path = "/nonexistent-gcresil-dir/deep/s.sock" in
  let w = watch_create () in
  let stop = Gc_exec.Cancel.create () in
  let config =
    { (supervise_config ~path ~seed:2) with Supervise.max_restarts = 2 }
  in
  let outcome = Supervise.run ~on_event:(watch_event w) ~stop config in
  (match outcome with
  | { Supervise.result = `Gave_up; restarts = 2 } -> ()
  | { Supervise.result = `Gave_up; restarts } ->
      Alcotest.failf "gave up after %d restarts, wanted 2" restarts
  | { Supervise.result = `Drained; _ } ->
      Alcotest.fail "drained a server that can never bind");
  let gave_up =
    List.exists
      (function Supervise.Gave_up _ -> true | _ -> false)
      w.events
  in
  Alcotest.(check bool) "emitted Gave_up" true gave_up

let test_supervise_clears_stale_socket () =
  (* Leave a dead socket file behind, as a SIGKILLed child would: the
     child's own bind must probe it and replace it. *)
  let path = fresh_sock () in
  let listener = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listener (Unix.ADDR_UNIX path);
  Unix.listen listener 1;
  Unix.close listener;
  Alcotest.(check bool) "stale file present" true (Sys.file_exists path);
  let w = watch_create () in
  let stop = Gc_exec.Cancel.create () in
  let outcome = ref None in
  let th =
    Thread.create
      (fun () ->
        outcome :=
          Some (Supervise.run ~on_event:(watch_event w) ~stop
                  (supervise_config ~path ~seed:3)))
      ()
  in
  await ~what:"child healthy despite the stale socket" (fun () ->
      w.healthy >= 1);
  Gc_exec.Cancel.request stop ~reason:"test over";
  Thread.join th;
  match !outcome with
  | Some { Supervise.result = `Drained; restarts = 0 } -> ()
  | _ -> Alcotest.fail "expected a clean drain with no restarts"

(* ---------------------------------------------------------- endpoint pool *)

let pool_config = { Pool.p2c = false; reprobe_after = 0.05; reprobe_max = 0.2 }

let pool_addrs n =
  List.init n (fun i ->
      Client.Unix_path (Printf.sprintf "gcpool-test.%d.sock" i))

let test_pool_state_machine () =
  let p = Pool.create ~config:pool_config ~seed:1 (pool_addrs 2) in
  Alcotest.(check string) "starts up" "up" (Pool.state_name (Pool.state p 0));
  Pool.note_failure p 0 ~now:0.;
  Alcotest.(check string)
    "one failure: suspect" "suspect"
    (Pool.state_name (Pool.state p 0));
  Pool.note_failure p 0 ~now:0.;
  Pool.note_failure p 0 ~now:0.;
  Alcotest.(check string)
    "three failures: down" "down"
    (Pool.state_name (Pool.state p 0));
  Alcotest.(check string)
    "the peer is untouched" "up"
    (Pool.state_name (Pool.state p 1));
  Pool.note_probe p 0 ~now:0. ~ok:true;
  Alcotest.(check string)
    "probe success restores up" "up"
    (Pool.state_name (Pool.state p 0))

let test_pool_rotation_deterministic () =
  let p = Pool.create ~config:pool_config ~seed:1 (pool_addrs 3) in
  Alcotest.(check (list int))
    "round robin over the up tier"
    [ 0; 1; 2; 0; 1; 2 ]
    (List.init 6 (fun _ -> Pool.pick p ~now:0.));
  Alcotest.(check int) "avoid skips within the tier" 1
    (Pool.pick ~avoid:[ 0; 2 ] p ~now:0.);
  Alcotest.(check int)
    "avoid covering everything is ignored" 0
    (Pool.pick ~avoid:[ 0; 1; 2 ] p ~now:0.)

let test_pool_routes_around_down () =
  let p = Pool.create ~config:pool_config ~seed:1 (pool_addrs 2) in
  for _ = 1 to 3 do
    Pool.note_failure p 0 ~now:0.
  done;
  Alcotest.(check (list int))
    "only the healthy replica is picked"
    [ 1; 1; 1; 1 ]
    (List.init 4 (fun _ -> Pool.pick p ~now:0.));
  (* Down at 0 with a 0.05s base: due by 1.25 x 0.05. *)
  Alcotest.(check (list int)) "re-probe due after the deadline" [ 0 ]
    (Pool.due_probes p ~now:0.1);
  Pool.note_probe p 0 ~now:0.1 ~ok:false;
  Alcotest.(check (list int))
    "a failed probe re-parks it" []
    (Pool.due_probes p ~now:0.1);
  (* The fourth failure doubles the base to 0.1s: due by 0.1 + 0.125. *)
  Alcotest.(check (list int))
    "due again after backoff" [ 0 ]
    (Pool.due_probes p ~now:0.25);
  Pool.note_probe p 0 ~now:0.25 ~ok:true;
  Alcotest.(check string)
    "recovered" "up"
    (Pool.state_name (Pool.state p 0))

let test_pool_p2c_prefers_faster () =
  let p =
    Pool.create
      ~config:{ pool_config with Pool.p2c = true }
      ~seed:1 (pool_addrs 2)
  in
  (* Until both endpoints have a latency sample, p2c cannot engage. *)
  Pool.note_ok p 0 ~latency_s:0.5;
  Pool.note_ok p 1 ~latency_s:0.01;
  for _ = 1 to 8 do
    Alcotest.(check int) "always the faster replica" 1 (Pool.pick p ~now:0.)
  done

(* Replays the pool's jitter draws on a twin of its Rng, so every
   re-probe deadline is known exactly.  p2c is off, so only failures
   draw. *)
let test_pool_backoff_schedule () =
  let ra = pool_config.Pool.reprobe_after
  and rmax = pool_config.Pool.reprobe_max in
  let p = Pool.create ~config:pool_config ~seed:7 (pool_addrs 2) in
  let twin = Gc_trace.Rng.create 7 in
  let fail ?(ep = 0) ~now () =
    Pool.note_failure p ep ~now;
    1. -. 0.25 +. (2. *. 0.25 *. Gc_trace.Rng.float twin 1.)
  in
  let state () = Pool.state_name (Pool.state p 0) in
  let due now = List.mem 0 (Pool.due_probes p ~now) in
  (* Make the peer Suspect: with no Up endpoint, a Down one shares the
     middle tier with it once its deadline passes. *)
  ignore (fail ~ep:1 ~now:0. ());
  ignore (fail ~now:0. ());
  ignore (fail ~now:1. ());
  Alcotest.(check string) "two failures: suspect" "suspect" (state ());
  let f = fail ~now:2. () in
  Alcotest.(check string) "the third failure: down" "down" (state ());
  Alcotest.(check bool)
    (Printf.sprintf "jitter factor %g in [0.75, 1.25]" f)
    true
    (f >= 0.75 && f <= 1.25);
  let deadline = 2. +. (ra *. f) in
  let before = Float.pred deadline in
  Alcotest.(check bool) "not due before its deadline" false (due before);
  Alcotest.(check (list int))
    "outside the middle tier before its deadline" [ 1; 1 ]
    (List.init 2 (fun _ -> Pool.pick p ~now:before));
  Alcotest.(check bool) "due at its deadline" true (due deadline);
  Alcotest.(check (list int))
    "in the middle tier at its deadline" [ 0; 1 ]
    (List.sort compare (List.init 2 (fun _ -> Pool.pick p ~now:deadline)));
  (* Each further failure doubles the base, up to reprobe_max. *)
  List.iteri
    (fun i base ->
      let now = 10. *. Float.of_int (i + 1) in
      let f = fail ~now () in
      let deadline = now +. (base *. f) in
      Alcotest.(check bool)
        (Printf.sprintf "failure %d: not due before %g" (i + 4) deadline)
        false
        (due (Float.pred deadline));
      Alcotest.(check bool)
        (Printf.sprintf "failure %d: due at %g" (i + 4) deadline)
        true (due deadline))
    [ 2. *. ra; 4. *. ra; rmax; rmax ]

(* ---------------------------------------------------------- multi client *)

let test_multi_failover_to_live_replica () =
  let dead = fresh_sock () in
  let live = fresh_sock () in
  let t = tiny_server live in
  Fun.protect
    ~finally:(fun () -> Server.drain t)
    (fun () ->
      let mc =
        Rc.create_set ~timeout:5. ~retry:fast_retry ~pool_config
          [ Client.Unix_path dead; Client.Unix_path live ]
      in
      (* Rotation makes the dead endpoint the primary of the first
         request; the refused dial must fail over within the attempt. *)
      (match Rc.request mc health with
      | Ok _ -> ()
      | Error f -> Alcotest.failf "request failed: %s" (Rc.string_of_failure f));
      Alcotest.(check bool)
        (Printf.sprintf "failed over (%d)" (Rc.failovers mc))
        true
        (Rc.failovers mc >= 1);
      Alcotest.(check int) "hedging is off by default" 0 (Rc.hedges mc);
      Alcotest.(check string)
        "the dead replica is marked" "suspect"
        (Pool.state_name (Pool.state (Rc.pool mc) 0));
      Rc.close mc)

let test_multi_hedge_second_replica_wins () =
  (* A blackhole primary: bound and listening but never accepting, so
     the dial and send succeed and the reply never comes.  The hedge
     fires at the live replica and its reply must win. *)
  let hole_path = fresh_sock () in
  let hole = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind hole (Unix.ADDR_UNIX hole_path);
  Unix.listen hole 1;
  let live = fresh_sock () in
  let t = tiny_server live in
  Fun.protect
    ~finally:(fun () ->
      Server.drain t;
      Unix.close hole)
    (fun () ->
      let mc =
        Rc.create_set ~timeout:5. ~retry:fast_retry ~pool_config
          ~hedge:0.05
          [ Client.Unix_path hole_path; Client.Unix_path live ]
      in
      (match Rc.request mc health with
      | Ok _ -> ()
      | Error f ->
          Alcotest.failf "hedged request failed: %s" (Rc.string_of_failure f));
      Alcotest.(check int) "one hedge fired" 1 (Rc.hedges mc);
      Alcotest.(check int) "the hedge won" 1 (Rc.hedge_wins mc);
      Rc.close mc)

(* ----------------------------------------------------------------- fleet *)

let test_fleet_socket_naming () =
  Alcotest.(check string)
    "BASE.I" "gcserved.sock.2"
    (Fleet.replica_socket ~base:"gcserved.sock" 2)

let run_fleet ~ws ~stop configs =
  let outcome = ref None in
  let th =
    Thread.create
      (fun () ->
        outcome :=
          Some
            (Fleet.run
               ~on_event:(fun ~replica ev -> watch_event ws.(replica) ev)
               ~stop configs))
      ()
  in
  (th, outcome)

let test_fleet_isolates_restarts () =
  let base = fresh_sock () in
  let ws = Array.init 2 (fun _ -> watch_create ()) in
  let stop = Gc_exec.Cancel.create () in
  let configs =
    Array.init 2 (fun i ->
        supervise_config ~path:(Fleet.replica_socket ~base i) ~seed:(10 + i))
  in
  let th, outcome = run_fleet ~ws ~stop configs in
  await ~what:"both replicas healthy" (fun () ->
      ws.(0).healthy >= 1 && ws.(1).healthy >= 1);
  (match ws.(0).pid with
  | Some pid -> Unix.kill pid Sys.sigkill
  | None -> Alcotest.fail "no pid for replica 0");
  await ~what:"replica 0 restarted" (fun () -> ws.(0).healthy >= 2);
  Gc_exec.Cancel.request stop ~reason:"test over";
  Thread.join th;
  match !outcome with
  | Some { Fleet.result = `Drained; replicas } ->
      Alcotest.(check int)
        "replica 0 restarted once" 1
        replicas.(0).Supervise.restarts;
      Alcotest.(check int)
        "replica 1 untouched" 0
        replicas.(1).Supervise.restarts
  | Some { Fleet.result = `All_gave_up; _ } -> Alcotest.fail "fleet gave up"
  | None -> Alcotest.fail "no outcome"

let test_fleet_bulkhead () =
  (* One replica can never bind; its budget is the bulkhead.  It must
     go dark alone while its sibling keeps answering, and the fleet as
     a whole still drains. *)
  let good = fresh_sock () in
  let bad = "/nonexistent-gcresil-dir/deep/fleet.sock" in
  let ws = Array.init 2 (fun _ -> watch_create ()) in
  let stop = Gc_exec.Cancel.create () in
  let configs =
    [|
      { (supervise_config ~path:bad ~seed:20) with Supervise.max_restarts = 2 };
      supervise_config ~path:good ~seed:21;
    |]
  in
  let th, outcome = run_fleet ~ws ~stop configs in
  await ~what:"the good replica healthy" (fun () -> ws.(1).healthy >= 1);
  await ~what:"the bad replica giving up" (fun () ->
      Mutex.lock ws.(0).mu;
      let gave =
        List.exists
          (function Supervise.Gave_up _ -> true | _ -> false)
          ws.(0).events
      in
      Mutex.unlock ws.(0).mu;
      gave);
  let rc = Rc.create ~timeout:5. (Client.Unix_path good) in
  (match Rc.request rc health with
  | Ok _ -> ()
  | Error f ->
      Alcotest.failf "surviving replica refused: %s" (Rc.string_of_failure f));
  Rc.close rc;
  Gc_exec.Cancel.request stop ~reason:"test over";
  Thread.join th;
  match !outcome with
  | Some { Fleet.result = `Drained; replicas } -> (
      (match replicas.(0).Supervise.result with
      | `Gave_up -> ()
      | `Drained -> Alcotest.fail "the bad replica cannot have drained");
      match replicas.(1).Supervise.result with
      | `Drained -> ()
      | `Gave_up -> Alcotest.fail "the good replica gave up")
  | Some { Fleet.result = `All_gave_up; _ } ->
      Alcotest.fail "one live replica must keep the fleet Drained"
  | None -> Alcotest.fail "no outcome"

(* ---------------------------------------------------------------- suite *)

let () =
  Alcotest.run "gc_resil"
    [
      ( "retry",
        [
          Alcotest.test_case "caps and doubles" `Quick test_retry_caps_and_doubles;
          Alcotest.test_case "jitter is deterministic" `Quick
            test_retry_jitter_deterministic;
          Alcotest.test_case "stops on success" `Quick test_retry_stops_on_success;
          Alcotest.test_case "respects classification" `Quick
            test_retry_respects_classification;
        ] );
      ( "breaker",
        [
          Alcotest.test_case "trips on failure rate" `Quick test_breaker_trips_on_rate;
          Alcotest.test_case "needs min samples" `Quick test_breaker_needs_min_samples;
          Alcotest.test_case "half-open single probe" `Quick
            test_breaker_half_open_probe;
          Alcotest.test_case "half-open failure reopens" `Quick
            test_breaker_half_open_failure_reopens;
          Alcotest.test_case "half-open race admits one" `Quick
            test_breaker_half_open_race;
        ] );
      ( "endpoint-pool",
        [
          Alcotest.test_case "state machine" `Quick test_pool_state_machine;
          Alcotest.test_case "rotation is deterministic" `Quick
            test_pool_rotation_deterministic;
          Alcotest.test_case "routes around a down replica" `Quick
            test_pool_routes_around_down;
          Alcotest.test_case "p2c prefers the faster replica" `Quick
            test_pool_p2c_prefers_faster;
          Alcotest.test_case "re-probe backoff schedule" `Quick
            test_pool_backoff_schedule;
        ] );
      ( "resilient-client",
        [
          Alcotest.test_case "round trip" `Quick test_rc_round_trip;
          Alcotest.test_case "reconnects across a restart" `Quick
            test_rc_reconnects_across_restart;
          Alcotest.test_case "refused is classified" `Quick
            test_rc_refused_is_classified;
          Alcotest.test_case "one endpoint has no breaker" `Quick
            test_rc_one_endpoint_has_no_breaker;
          Alcotest.test_case "breaker fast-fails" `Quick test_rc_breaker_fast_fails;
        ] );
      ( "multi",
        [
          Alcotest.test_case "failover to a live replica" `Quick
            test_multi_failover_to_live_replica;
          Alcotest.test_case "hedge: second replica wins" `Quick
            test_multi_hedge_second_replica_wins;
        ] );
      ( "fleet",
        [
          Alcotest.test_case "socket naming" `Quick test_fleet_socket_naming;
          Alcotest.test_case "restarts stay with the killed replica" `Quick
            test_fleet_isolates_restarts;
          Alcotest.test_case "bulkhead: one gives up, the fleet drains" `Quick
            test_fleet_bulkhead;
        ] );
      ( "supervise",
        [
          Alcotest.test_case "restart after SIGKILL" `Quick
            test_supervise_restarts_after_kill;
          Alcotest.test_case "crash loop gives up" `Quick
            test_supervise_gives_up_on_crash_loop;
          Alcotest.test_case "clears a stale socket" `Quick
            test_supervise_clears_stale_socket;
        ] );
    ]
