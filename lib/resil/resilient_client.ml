module Json = Gc_obs.Json
module Client = Gc_serve.Client
module Protocol = Gc_serve.Protocol
module Token_bucket = Gc_admit.Token_bucket
module Clock = Gc_prof.Clock
module Retry = Gc_exec.Retry

type failure =
  | Transport of Client.error * int
  | Rejected of string * string
  | Open_circuit

let string_of_failure = function
  | Transport (e, attempts) ->
      Printf.sprintf "%s (after %d attempt%s)"
        (Client.string_of_client_error e)
        attempts
        (if attempts = 1 then "" else "s")
  | Rejected (kind, message) -> Printf.sprintf "%s: %s" kind message
  | Open_circuit -> "circuit open: failing fast without dialing"

(* ---------------------------------------------------------- channels *)

(* One server address, its breaker, and its cached connection; the
   client owns one per endpoint.  The channel mutex only guards the
   [conn] slot (never held across a blocking send/recv), which is what
   lets a hedging race {!chan_cancel} a channel while another thread is
   blocked reading from it. *)
type chan = {
  c_addr : Client.addr;
  c_breaker : Breaker.t option;
      (** [None] on a one-endpoint client: with no other replica to route
          to, an open breaker could only turn retries into fast failures. *)
  c_mu : Mutex.t;
  mutable c_conn : Client.conn option;
  mutable c_connected_once : bool;
  mutable c_reconnects : int;
}

let chan_make ~breaker addr =
  {
    c_addr = addr;
    c_breaker = (if breaker then Some (Breaker.create ()) else None);
    c_mu = Mutex.create ();
    c_conn = None;
    c_connected_once = false;
    c_reconnects = 0;
  }

let chan_locked ch f =
  Mutex.lock ch.c_mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock ch.c_mu) f

let chan_drop ch =
  chan_locked ch (fun () ->
      match ch.c_conn with
      | None -> ()
      | Some c ->
          ch.c_conn <- None;
          Client.close c)

(* Wake a reader blocked on this channel: [shutdown], not [close] — the
   attempt thread still owns the descriptor and closes it itself when
   its read returns EOF, so the descriptor is never yanked out from
   under a live [read]. *)
let chan_cancel ch =
  chan_locked ch (fun () ->
      match ch.c_conn with
      | None -> ()
      | Some c -> (
          try Unix.shutdown (Client.fd c) Unix.SHUTDOWN_ALL
          with Unix.Unix_error _ -> ()))

let chan_reconnects ch = chan_locked ch (fun () -> ch.c_reconnects)

let chan_allows ch =
  match ch.c_breaker with
  | None -> true
  | Some b -> Breaker.allow b ~now:(Clock.now_s ())

let chan_closed ch =
  match ch.c_breaker with
  | None -> true
  | Some b -> Breaker.state b = Breaker.Closed

let chan_record ch ~ok =
  Option.iter (fun b -> Breaker.record b ~now:(Clock.now_s ()) ~ok) ch.c_breaker

(* One attempt's failure, classified for the retry predicate. *)
type attempt_error =
  | A_transport of Client.error
  | A_stale of string  (** Id echo mismatch: a leftover reply, not ours. *)
  | A_rejected of string * string  (** overloaded | expired | draining *)
  | A_open

let chan_conn ~timeout ch =
  chan_locked ch (fun () ->
      match ch.c_conn with
      | Some c -> Ok c
      | None -> (
          match
            Client.connect_result ~timeout:(Float.min timeout 5.) ch.c_addr
          with
          | Ok c ->
              if ch.c_connected_once then
                ch.c_reconnects <- ch.c_reconnects + 1;
              ch.c_connected_once <- true;
              ch.c_conn <- Some c;
              Ok c
          | Error e -> Error (A_transport e)))

(* One send/recv round-trip on a channel, classified.  [note_hint] sees
   the server's [retry_after_ms] (seconds) from a shed reply. *)
let chan_attempt ~timeout ~note_hint ch json sent_id =
  let ( let* ) = Result.bind in
  let* c = chan_conn ~timeout ch in
  let transport r =
    Result.map_error
      (fun e ->
        chan_drop ch;
        A_transport e)
      r
  in
  let* () = transport (Client.send_result c json) in
  let* reply = transport (Client.recv_result ~timeout c) in
  match Protocol.reply_of_json reply with
  | Error message ->
      chan_drop ch;
      Error (A_transport { Client.kind = Client.Protocol; message })
  | Ok (echoed, body) -> (
      if echoed <> sent_id then begin
        (* A reply for some earlier request on this stream (e.g. one we
           timed out on): the id echo proves it is not ours.  Resync by
           redialing. *)
        chan_drop ch;
        Error
          (A_stale
             (Printf.sprintf "stale reply: sent id %s, reply echoes %s"
                (match sent_id with Some j -> Json.to_string j | None -> "none")
                (match echoed with Some j -> Json.to_string j | None -> "none")))
      end
      else
        match body with
        | Protocol.Err (kind, message)
          when kind = Protocol.kind_overloaded
               || kind = Protocol.kind_expired
               || kind = Protocol.kind_draining ->
            (* Surface the server's backoff hint for the next delay. *)
            (match Protocol.retry_after_ms reply with
            | Some ms -> note_hint (Float.of_int ms /. 1000.)
            | None -> ());
            Error (A_rejected (kind, message))
        | Protocol.Ok_result _ | Protocol.Err _ -> Ok reply)

let with_id_gen ~next json =
  match json with
  | Json.Obj fields when not (List.mem_assoc "id" fields) ->
      let id = Json.Int (next ()) in
      (Json.Obj (("id", id) :: fields), Some id)
  | Json.Obj fields -> (json, List.assoc_opt "id" fields)
  | _ -> (json, None)

let retryable = function
  | A_open -> false
  | A_rejected (kind, _) ->
      kind = Protocol.kind_overloaded || kind = Protocol.kind_expired
  | A_stale _ -> true
  | A_transport { Client.kind; _ } -> (
      match kind with
      | Client.Refused | Client.Timeout | Client.Reset -> true
      | Client.Protocol -> false)

let failure_of_give_up = function
  | { Retry.last_error = A_open; _ } -> Open_circuit
  | { Retry.last_error = A_rejected (kind, message); _ } ->
      Rejected (kind, message)
  | { Retry.last_error = A_transport e; attempts; _ } -> Transport (e, attempts)
  | { Retry.last_error = A_stale message; attempts; _ } ->
      Transport ({ Client.kind = Client.Protocol; message }, attempts)

(* ------------------------------------------------------------ client *)

type t = {
  pool : Endpoint_pool.t;
  chans : chan array;
  timeout : float;
  retry : Retry.policy;
  retry_budget : Token_bucket.t option;
  hedge : float option;  (** The hedge delay, seconds. *)
  probe_timeout : float;
  rng : Gc_trace.Rng.t;
  mu : Mutex.t;  (** Serialises requests: one frame in flight per conn. *)
  mutable next_id : int;
  mutable n_retries : int;
  mutable n_failovers : int;
  mutable n_hedges : int;
  mutable n_hedge_wins : int;
}

let pool t = t.pool

let health_body = Json.Obj [ ("op", Json.String "health") ]

let probe t =
  List.iter
    (fun i ->
      let ok =
        match
          Client.request_result ~timeout:t.probe_timeout
            (Endpoint_pool.addr t.pool i)
            health_body
        with
        | Ok _ -> true
        | Error _ -> false
      in
      Endpoint_pool.note_probe t.pool i ~now:(Clock.now_s ()) ~ok)
    (Endpoint_pool.due_probes t.pool ~now:(Clock.now_s ()))

let create_set ?(timeout = 60.) ?(retry = Retry.default)
    ?(retry_budget = Some (Token_bucket.create ())) ?hedge ?pool_config
    ?(seed = 0) addrs =
  (* The pool validates the list (and draws its own jitter stream from
     [seed + 1], so routing never perturbs the retry schedule). *)
  let pool = Endpoint_pool.create ?config:pool_config ~seed:(seed + 1) addrs in
  let breaker = List.length addrs >= 2 in
  {
    pool;
    chans = Array.of_list (List.map (chan_make ~breaker) addrs);
    timeout;
    retry;
    retry_budget;
    hedge;
    probe_timeout = Float.min timeout 2.;
    rng = Gc_trace.Rng.create seed;
    mu = Mutex.create ();
    next_id = 0;
    n_retries = 0;
    n_failovers = 0;
    n_hedges = 0;
    n_hedge_wins = 0;
  }

let create ?timeout ?retry ?retry_budget ?seed addr =
  create_set ?timeout ?retry ?retry_budget ?seed [ addr ]

(* Outcome accounting for a completed (non-cancelled) attempt on
   endpoint [i]: endpoint health for the pool, plus the breaker. *)
let account t i outcome ~latency =
  let ch = t.chans.(i) in
  match outcome with
  | Ok _ ->
      chan_record ch ~ok:true;
      Endpoint_pool.note_ok t.pool i ~latency_s:latency
  | Error (A_rejected (kind, _)) ->
      (* A framed rejection proves the endpoint is alive — health-wise
         it is Up even while shedding; the breaker still counts the
         shed as a failure (draining excepted) so a melting replica
         trips in isolation. *)
      chan_record ch ~ok:(kind = Protocol.kind_draining);
      Endpoint_pool.note_ok t.pool i ~latency_s:latency
  | Error (A_transport _ | A_stale _) ->
      chan_record ch ~ok:false;
      Endpoint_pool.note_failure t.pool i ~now:(Clock.now_s ())
  | Error A_open -> ()

let raw_attempt t i json sent_id hint =
  let t0 = Clock.now_s () in
  let r =
    chan_attempt ~timeout:t.timeout
      ~note_hint:(fun h -> hint := Float.max !hint h)
      t.chans.(i) json sent_id
  in
  (r, Clock.now_s () -. t0)

(* Plain attempt: breaker-gated, fully accounted. *)
let attempt_ep t i json sent_id hint =
  if not (chan_allows t.chans.(i)) then Error A_open
  else begin
    let r, latency = raw_attempt t i json sent_id hint in
    account t i r ~latency;
    r
  end

(* Hedge targets must have a Closed breaker: [Breaker.allow] on a
   Closed breaker has no side effect, so a cancelled loser can never
   strand the half-open probe slot. *)
let hedge_target t ~primary =
  let i = Endpoint_pool.pick ~avoid:[ primary ] t.pool ~now:(Clock.now_s ()) in
  if
    i <> primary
    && Endpoint_pool.state t.pool i = Endpoint_pool.Up
    && chan_closed t.chans.(i)
  then Some i
  else None

(* A hedged attempt: fire the primary, and if it has not settled
   within the hedge delay, fire one more attempt at another Up replica
   — first reply wins, the loser's read is woken by [chan_cancel] and
   its result discarded.  Id-echo dedupe already guards the streams:
   each attempt runs on its own per-endpoint channel, and a late reply
   left on a cancelled channel can never be taken for a later
   request's answer. *)
let hedged_attempt t delay primary json sent_id hint =
  let rmu = Mutex.create () in
  let rcond = Condition.create () in
  let finished = ref [] in (* (endpoint, result, latency), completion order *)
  let started = ref 1 in
  let hedge_undecided = ref true in
  let hedge_fired = ref false in
  let secondary = ref None in
  let post ep res lat =
    Mutex.lock rmu;
    finished := !finished @ [ (ep, res, lat) ];
    Condition.broadcast rcond;
    Mutex.unlock rmu
  in
  let run ep =
    let r, lat = raw_attempt t ep json sent_id hint in
    post ep r lat
  in
  (* Request latencies are wall-clock I/O races by nature; these two
     short-lived threads cannot run on the deterministic Gc_exec
     pool. *)
  let th_primary =
    Thread.create run primary [@lint.allow "spawn-outside-pool"]
  in
  let hedger () =
    (* Nap in slices: a race the primary already settled releases this
       thread early instead of after the full delay. *)
    let slice = Float.max 0.002 (delay /. 8.) in
    let t0 = Clock.now_s () in
    let rec pause () =
      let settled =
        Mutex.lock rmu;
        let s = !finished <> [] in
        Mutex.unlock rmu;
        s
      in
      if (not settled) && Clock.now_s () -. t0 < delay then begin
        Gc_exec.Pool.nap slice;
        pause ()
      end
    in
    pause ();
    Mutex.lock rmu;
    let target =
      if !finished = [] then hedge_target t ~primary else None
    in
    match target with
    | Some ep ->
        secondary := Some ep;
        hedge_fired := true;
        hedge_undecided := false;
        started := 2;
        Condition.broadcast rcond;
        Mutex.unlock rmu;
        run ep
    | None ->
        hedge_undecided := false;
        Condition.broadcast rcond;
        Mutex.unlock rmu
  in
  let th_hedge =
    Thread.create hedger () [@lint.allow "spawn-outside-pool"]
  in
  Mutex.lock rmu;
  let rec await () =
    match List.find_opt (fun (_, r, _) -> Result.is_ok r) !finished with
    | Some w -> Some w
    | None ->
        if List.length !finished >= !started && not !hedge_undecided then
          None
        else begin
          Condition.wait rcond rmu;
          await ()
        end
  in
  let winner = await () in
  let fired = !hedge_fired in
  let second = !secondary in
  Mutex.unlock rmu;
  (* Cancel the loser so the joins below are prompt. *)
  (match winner with
  | None -> ()
  | Some (wep, _, _) ->
      if wep <> primary then chan_cancel t.chans.(primary);
      (match second with
      | Some s when s <> wep -> chan_cancel t.chans.(s)
      | _ -> ()));
  Thread.join th_primary;
  Thread.join th_hedge;
  let all = !finished in
  if fired then t.n_hedges <- t.n_hedges + 1;
  match winner with
  | Some (wep, wres, wlat) ->
      account t wep wres ~latency:wlat;
      (* Losers were cancelled: an error over there is our own
         shutdown talking and says nothing about the endpoint, so only
         a completed Ok (both replicas answered) is accounted. *)
      List.iter
        (fun (ep, r, lat) ->
          if ep <> wep && Result.is_ok r then account t ep r ~latency:lat)
        all;
      if fired && wep <> primary then t.n_hedge_wins <- t.n_hedge_wins + 1;
      wres
  | None ->
      (* No winner: every attempt genuinely failed — account them all
         and surface the primary's error for retry classification. *)
      List.iter (fun (ep, r, lat) -> account t ep r ~latency:lat) all;
      let primary_err =
        List.find_opt (fun (ep, _, _) -> ep = primary) all
      in
      (match (primary_err, all) with
      | Some (_, r, _), _ -> r
      | None, (_, r, _) :: _ -> r
      | None, [] ->
          Error
            (A_transport
               {
                 Client.kind = Client.Reset;
                 message = "hedged attempt produced no result";
               }))

let attempt_on t i json sent_id hint =
  match t.hedge with
  | Some delay when Endpoint_pool.length t.pool > 1 && chan_closed t.chans.(i)
    ->
      hedged_attempt t delay i json sent_id hint
  | _ -> attempt_ep t i json sent_id hint

(* Transport-level failures fail over to another replica inside the
   same attempt, with no backoff: the failure already cost its timeout,
   and another replica may answer immediately.  [A_open] fails over
   too — the breaker refused before anything was sent. *)
let failover_worthy = function
  | A_open
  | A_transport { Client.kind = Client.Refused | Client.Timeout | Client.Reset; _ }
    ->
      true
  | A_transport _ | A_stale _ | A_rejected _ -> false

let round t json sent_id hint =
  let n = Endpoint_pool.length t.pool in
  let rec go tried i =
    match attempt_on t i json sent_id hint with
    | Ok r -> Ok r
    | Error e ->
        let tried = i :: tried in
        if failover_worthy e && List.length tried < n then begin
          t.n_failovers <- t.n_failovers + 1;
          go tried (Endpoint_pool.pick ~avoid:tried t.pool ~now:(Clock.now_s ()))
        end
        else Error e
  in
  go [] (Endpoint_pool.pick t.pool ~now:(Clock.now_s ()))

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let request t json =
  locked t (fun () ->
      let json, sent_id =
        with_id_gen
          ~next:(fun () ->
            t.next_id <- t.next_id + 1;
            t.next_id)
          json
      in
      let hint = ref 0. in
      (* Every retry is paid for out of the token bucket: when successes
         (which refill it) dry up, so do the retries — the property that
         keeps a fleet of these clients from holding an overload in its
         metastable state. *)
      let gated e =
        retryable e
        && match t.retry_budget with
           | None -> true
           | Some b -> Token_bucket.try_take b
      in
      match
        Retry.run ~policy:t.retry ~rng:t.rng
          ~sleep:(fun d -> Gc_exec.Pool.nap (Float.max d !hint))
          ~retryable:gated
          (fun ~attempt ->
            if attempt > 1 then t.n_retries <- t.n_retries + 1;
            hint := 0.;
            round t json sent_id hint)
      with
      | Ok reply ->
          Option.iter Token_bucket.on_success t.retry_budget;
          Ok reply
      | Error give_up -> Error (failure_of_give_up give_up))

let close t = locked t (fun () -> Array.iter chan_drop t.chans)
let retries t = locked t (fun () -> t.n_retries)
let failovers t = locked t (fun () -> t.n_failovers)
let hedges t = locked t (fun () -> t.n_hedges)
let hedge_wins t = locked t (fun () -> t.n_hedge_wins)

let reconnects t =
  Array.fold_left (fun acc ch -> acc + chan_reconnects ch) 0 t.chans
