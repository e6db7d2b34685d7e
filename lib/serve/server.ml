module Json = Gc_obs.Json
module Registry = Gc_obs.Registry
module Cancel = Gc_exec.Cancel
module Pool = Gc_exec.Pool
module Clock = Gc_prof.Clock
module Tracer = Gc_prof.Tracer
module Aimd = Gc_admit.Aimd
module Codel = Gc_admit.Codel
module Deque = Gc_admit.Deque
module Deadline = Gc_admit.Deadline

type config = {
  socket_path : string option;
  tcp : (string * int) option;
  queue_depth : int;
  workers : int;
  deadline : float;
  grace : float;
  retries : int;
  backoff : float;
  frame_timeout : float;
  codel_target : float;
  codel_interval : float;
  retry_after_ms : int;
  seed : int;
  trace : string option;
  name : string option;
}

let default_config =
  {
    socket_path = None;
    tcp = None;
    queue_depth = 64;
    workers = max 1 (Domain.recommended_domain_count () - 1);
    deadline = 30.;
    grace = 0.25;
    retries = 1;
    backoff = 0.05;
    frame_timeout = 10.;
    codel_target = 0.1;
    codel_interval = 0.5;
    retry_after_ms = 100;
    seed = 0;
    trace = None;
    name = None;
  }

(* A write to a client that stops reading gives up after this many
   seconds. *)
let write_timeout = 5.

(* Open connections beyond this many are answered "overloaded" and
   closed. *)
let max_connections = 256

(* Request-path spans.  Worker and reader sys-threads share domain 0, so
   the thread id is the Perfetto track; the request id rides in the span
   args and is how the trace reconciles against the latency_us histogram
   observation for the same request. *)
let span_tid () = Thread.id (Thread.self ())

let span_id_args id =
  if not (Tracer.enabled ()) then []
  else
    match id with
    | Some j -> [ ("id", Json.to_string j) ]
    | None -> []

(* A task raises this to pick the error kind of its reply (policy crash,
   model violation, bad parameters discovered at construction time). *)
exception Reply_error of string * string

let disconnect_reason = "client disconnected"

type conn = {
  fd : Unix.file_descr;
  wmu : Mutex.t;  (** Serialises response frames from worker threads. *)
  mutable alive : bool;
  mutable refs : int;  (** Reader thread + unsettled jobs; close at 0. *)
  mutable jobs : job list;  (** Admitted, unsettled. *)
}

and job = {
  req_id : Json.t option;
  jop : Protocol.op;
  jbudget_ms : int option;  (** The client's propagated [budget_ms]. *)
  jconn : conn;
  admitted_ns : int;  (** Monotonic {!Clock} reading at admission. *)
  jcancel : Cancel.t;  (** Requested when the client disconnects. *)
  mutable pool_cancel : Cancel.t option;
      (** The in-flight pool task's own token, via [Pool.run ~on_start]. *)
}

type t = {
  config : config;
  reg : Registry.t;
  mu : Mutex.t;
  nonempty : Condition.t;
      (** Queue gained a job, a worker slot freed up, or drain began. *)
  idle : Condition.t;  (** Queue empty and nothing in flight. *)
  queue : job Deque.t;  (** FIFO while healthy, LIFO while overloaded. *)
  aimd : Aimd.t;  (** Adaptive concurrency limit, guarded by [mu]. *)
  codel : Codel.t;  (** Sojourn-shedding controller, guarded by [mu]. *)
  hint_rng : Gc_trace.Rng.t;  (** Retry-after jitter, guarded by [mu]. *)
  mutable inflight : int;
  mutable is_draining : bool;
  mutable stopped : bool;
  mutable conns : conn list;
  started_at : float;
  listeners : Unix.file_descr list;
  mutable acceptors : Thread.t list;
  mutable workers : Thread.t list;
  (* Metric handles, all registered up front so no thread ever mutates the
     registry's table concurrently. *)
  c_requests : (string * Registry.counter) list;  (* by op, + "invalid" *)
  c_replies : (string * Registry.counter) list;  (* by status kind *)
  c_shed : Registry.counter;  (* total, all shed reasons *)
  c_shed_depth : Registry.counter;  (* queue/connection bound reached *)
  c_shed_sojourn : Registry.counter;  (* CoDel dropping state *)
  c_shed_expired : Registry.counter;  (* client budget lapsed in queue *)
  c_faults : Registry.counter;  (* framing-level protocol faults *)
  c_io_errors : Registry.counter;  (* reply writes that found the peer gone *)
  c_disconnects : Registry.counter;
  c_accepted : Registry.counter;
  g_queue : Registry.gauge;
  g_inflight : Registry.gauge;
  g_limit : Registry.gauge;  (* current AIMD concurrency limit *)
  g_conns : Registry.gauge;
  h_latency : (string * Gc_obs.Histogram.t) list;  (* by op, microseconds *)
  h_queue_wait : (string * Gc_obs.Histogram.t) list;  (* by dequeue outcome *)
}

let ops = [ "sim"; "miss-curve"; "health"; "stats"; "invalid" ]

let reply_kinds =
  [
    "ok";
    Protocol.kind_usage;
    Protocol.kind_protocol;
    Protocol.kind_overloaded;
    Protocol.kind_draining;
    Protocol.kind_expired;
    Protocol.kind_timeout;
    Protocol.kind_cancelled;
    Protocol.kind_exception;
    "model-violation";
    "other";
  ]

(* Every dequeued job's queue wait lands in exactly one of these, so the
   sojourn distribution stays observable for the work the server refused
   — which under overload is most of it. *)
let wait_outcomes = [ "executed"; "shed"; "expired"; "cancelled" ]

let counter_for table key =
  match List.assoc_opt key table with
  | Some c -> c
  | None -> List.assoc "other" table

(* ------------------------------------------------------------ responses *)

(* Serialised, bounded (SO_SNDTIMEO), and total: any write failure just
   marks the connection dead — the peer is gone, which is its problem,
   but the [io_errors] counter keeps the event visible to the stats op
   and to chaos drills (a silent swallow here would make a fault-proxy
   run unaccountable).  Encoding happens outside the write lock (it
   touches only the json), under an "encode" span; the write itself is
   the "reply" span. *)
let try_write t ?(req_id = None) conn json =
  let args = span_id_args req_id in
  let s =
    Gc_prof.Span.with_ ~args ~tid:(span_tid ()) "encode" (fun () ->
        Frame.encode json)
  in
  Mutex.lock conn.wmu;
  (match
     if conn.alive then
       Gc_prof.Span.with_ ~args ~tid:(span_tid ()) "reply" (fun () ->
           Frame.write_raw conn.fd s)
   with
  | () -> ()
  | exception (Unix.Unix_error _ | Sys_error _) ->
      Registry.incr t.c_io_errors;
      conn.alive <- false);
  Mutex.unlock conn.wmu

let count_reply t kind = Registry.incr (counter_for t.c_replies kind)

let reply_error t conn ?id ?retry_after_ms kind message =
  count_reply t kind;
  try_write t ~req_id:id conn (Protocol.error ?id ?retry_after_ms ~kind message)

let reply_ok t conn ?id result =
  count_reply t "ok";
  try_write t ~req_id:id conn (Protocol.ok ?id result)

(* -------------------------------------------------------------- lifecycle *)

let release_locked t conn =
  conn.refs <- conn.refs - 1;
  if conn.refs = 0 then begin
    (try Unix.close conn.fd with Unix.Unix_error _ -> ());
    t.conns <- List.filter (fun c -> c != conn) t.conns;
    Registry.set t.g_conns (List.length t.conns)
  end

(* The reader saw EOF or gave up on the stream: cancel everything this
   client still has in flight (queued jobs are skipped by the worker;
   running ones are cooperatively cancelled through their pool token). *)
let disconnect t conn =
  Mutex.lock t.mu;
  conn.alive <- false;
  if conn.jobs <> [] then Registry.incr t.c_disconnects;
  List.iter
    (fun j ->
      Cancel.request j.jcancel ~reason:disconnect_reason;
      match j.pool_cancel with
      | Some c -> Cancel.request c ~reason:disconnect_reason
      | None -> ())
    conn.jobs;
  release_locked t conn;
  Mutex.unlock t.mu

let detach_locked job =
  job.jconn.jobs <- List.filter (fun j -> j != job) job.jconn.jobs

(* A job leaves its connection's in-flight list before its reply is
   written: a client that reads the reply and hangs up at once did not
   disconnect mid-request. *)
let detach t job =
  Mutex.lock t.mu;
  detach_locked job;
  Mutex.unlock t.mu

(* After the reply (if any) is written: drop the job's connection
   reference, and its list entry if it never got as far as a reply. *)
let settle t job =
  Mutex.lock t.mu;
  detach_locked job;
  release_locked t job.jconn;
  Mutex.unlock t.mu

(* ------------------------------------------------------------- execution *)

let build_trace (w : Protocol.workload) ~seed =
  match
    Gc_trace.Workload_suite.build ~seed ~n:w.n ~universe:w.universe
      ~block_size:w.block_size w.workload
  with
  | Ok trace -> trace
  | Error msg -> raise (Reply_error (Protocol.kind_usage, msg))

let run_or_reply_error ?(check = false) ~k ~seed policy trace =
  match Gc_cache.Obs_run.run_policy_result ~check ~k ~seed policy trace with
  | Ok r -> r
  | Error f -> raise (Reply_error (f.kind, f.message))

(* Runs inside the pool's task domain, under its cancel token. *)
let execute op ~cancel:_ =
  match op with
  | Protocol.Sim s ->
      let trace = build_trace s.load ~seed:s.seed in
      let r = run_or_reply_error ~check:s.check ~k:s.k ~seed:s.seed s.policy trace in
      Json.Obj
        [
          ("policy", Json.String s.policy);
          ("workload", Json.String s.load.workload);
          ("k", Json.Int s.k);
          ("metrics", Gc_cache.Metrics.to_json r.Gc_cache.Obs_run.metrics);
        ]
  | Protocol.Miss_curve c ->
      let trace = build_trace c.curve_load ~seed:c.curve_seed in
      let rows =
        List.map
          (fun k ->
            Cancel.poll ();
            let r =
              run_or_reply_error ~k ~seed:c.curve_seed c.curve_policy trace
            in
            let m = r.Gc_cache.Obs_run.metrics in
            Json.Obj
              [
                ("k", Json.Int k);
                ("misses", Json.Int m.Gc_cache.Metrics.misses);
                ("miss_rate", Json.Float (Gc_cache.Metrics.miss_rate m));
              ])
          c.ks
      in
      Json.Obj
        [
          ("policy", Json.String c.curve_policy);
          ("workload", Json.String c.curve_load.workload);
          ("curve", Json.Array rows);
        ]
  | Protocol.Health | Protocol.Stats ->
      (* Answered inline by the reader; never admitted. *)
      assert false

let pool_config t ~deadline =
  {
    (Pool.default_config ()) with
    Pool.domains = 1;
    deadline = Some deadline;
    grace = t.config.grace;
    retries = t.config.retries;
    backoff = t.config.backoff;
  }

(* Must hold [t.mu]: draws from the shared jitter stream. *)
let hint_locked t =
  Deadline.retry_after_ms t.hint_rng ~base_ms:t.config.retry_after_ms

(* The worker's disposition for a dequeued job, decided under [t.mu]
   before any execution is committed. *)
type verdict =
  | V_serve of float  (* effective deadline, seconds *)
  | V_shed of int  (* CoDel said drop; retry-after hint, ms *)
  | V_expired of int  (* client budget lapsed in queue; hint, ms *)
  | V_cancelled

let observe_wait t outcome wait_ns =
  match List.assoc_opt outcome t.h_queue_wait with
  | Some h -> Gc_obs.Histogram.observe h (wait_ns / 1000)
  | None -> ()

(* AIMD feedback from the job's outcome, applied by the worker once it
   holds [t.mu] again. *)
type aimd_signal = Sig_success | Sig_congestion | Sig_none

let process t job ~wait_ns verdict =
  let op = Protocol.op_name job.jop in
  if Tracer.enabled () then
    Tracer.emit
      ~args:(span_id_args job.req_id)
      ~tid:(span_tid ()) ~ts_ns:job.admitted_ns ~dur_ns:wait_ns "queue-wait";
  let conn = job.jconn in
  let id = job.req_id in
  let sojourn_ms = Float.of_int wait_ns /. 1e6 in
  (* Only a served job has work for a disconnect to cancel. *)
  (match verdict with V_serve _ -> () | _ -> detach t job);
  match verdict with
  | V_cancelled ->
      observe_wait t "cancelled" wait_ns;
      count_reply t Protocol.kind_cancelled;
      Sig_none
  | V_expired hint ->
      (* The client's budget died in the queue: executing now would burn
         a worker on an answer nobody is waiting for — the fuel of a
         metastable collapse. *)
      observe_wait t "expired" wait_ns;
      Registry.incr t.c_shed;
      Registry.incr t.c_shed_expired;
      reply_error t conn ?id ~retry_after_ms:hint Protocol.kind_expired
        (Printf.sprintf
           "budget of %dms lapsed after %.0fms in the admission queue"
           (Option.value job.jbudget_ms ~default:0)
           sojourn_ms);
      Sig_congestion
  | V_shed hint ->
      observe_wait t "shed" wait_ns;
      Registry.incr t.c_shed;
      Registry.incr t.c_shed_sojourn;
      reply_error t conn ?id ~retry_after_ms:hint Protocol.kind_overloaded
        (Printf.sprintf
           "queue sojourn %.0fms exceeded the %.0fms target"
           sojourn_ms
           (t.config.codel_target *. 1000.));
      Sig_congestion
  | V_serve deadline ->
      observe_wait t "executed" wait_ns;
      let outcome =
        match
          Gc_prof.Span.with_
            ~args:(span_id_args job.req_id)
            ~tid:(span_tid ()) "execute"
            (fun () ->
              Pool.run ~config:(pool_config t ~deadline)
                ~on_start:(fun _ c ->
                  (* Publish the live token; if the disconnect already
                     happened, cancel immediately — the hook runs before the
                     task reaches a worker domain, so this cannot lose the
                     race. *)
                  Mutex.lock t.mu;
                  job.pool_cancel <- Some c;
                  if Cancel.requested job.jcancel then
                    Cancel.request c ~reason:disconnect_reason;
                  Mutex.unlock t.mu)
                [ execute job.jop ])
        with
        | [ o ] -> o
        | _ -> assert false
      in
      detach t job;
      let signal =
        match outcome with
        | Pool.Done result ->
            reply_ok t conn ?id result;
            Sig_success
        | Pool.Failed (Reply_error (kind, message)) ->
            reply_error t conn ?id kind message;
            Sig_none
        | Pool.Failed (Invalid_argument message) ->
            (* Parameterized policy construction rejected its arguments. *)
            reply_error t conn ?id Protocol.kind_usage message;
            Sig_none
        | Pool.Failed exn ->
            reply_error t conn ?id Protocol.kind_exception
              (Printexc.to_string exn);
            Sig_none
        | Pool.Timed_out d ->
            reply_error t conn ?id Protocol.kind_timeout
              (Printf.sprintf "request exceeded its %gs deadline" d);
            Sig_congestion
        | Pool.Cancelled ->
            (* Only the disconnect path cancels a job token; the client is
               gone, so there is nobody to answer — just account for it. *)
            count_reply t Protocol.kind_cancelled;
            Sig_none
      in
      (match List.assoc_opt op t.h_latency with
      | Some h ->
          Gc_obs.Histogram.observe h
            ((Clock.now_ns () - job.admitted_ns) / 1000)
      | None -> ());
      signal

let worker_loop t =
  let rec loop () =
    Mutex.lock t.mu;
    (* Wait until there is a job AND a slot under the adaptive limit —
       or until a drain empties the queue out from under us.  During a
       drain the limit still gates execution; progress is guaranteed
       because every completion broadcasts [nonempty]. *)
    while
      (Deque.is_empty t.queue || t.inflight >= Aimd.limit t.aimd)
      && not (t.is_draining && Deque.is_empty t.queue)
    do
      Condition.wait t.nonempty t.mu
    done;
    if Deque.is_empty t.queue then Mutex.unlock t.mu (* draining: exit *)
    else begin
      let job =
        (* LIFO under overload: the newest request is the only one whose
           client is still likely to be waiting. *)
        match
          if Codel.overloaded t.codel then Deque.pop_back_opt t.queue
          else Deque.pop_front_opt t.queue
        with
        | Some j -> j
        | None -> assert false
      in
      Registry.set t.g_queue (Deque.length t.queue);
      let now_ns = Clock.now_ns () in
      let wait_ns = now_ns - job.admitted_ns in
      let now = Float.of_int now_ns /. 1e9 in
      let sojourn = Float.of_int wait_ns /. 1e9 in
      (* CoDel sees every dequeue (it tracks continuity of the
         above-target condition); the deadline check takes precedence for
         the reply itself. *)
      let codel_verdict = Codel.on_dequeue t.codel ~now ~sojourn in
      let verdict =
        if Cancel.requested job.jcancel then V_cancelled
        else
          match
            Deadline.effective ~server_deadline:t.config.deadline
              ~budget_ms:job.jbudget_ms ~sojourn
          with
          | Deadline.Expired -> V_expired (hint_locked t)
          | Deadline.Within d -> (
              match codel_verdict with
              | Codel.Shed -> V_shed (hint_locked t)
              | Codel.Serve -> V_serve d)
      in
      t.inflight <- t.inflight + 1;
      Registry.set t.g_inflight t.inflight;
      Mutex.unlock t.mu;
      (* A reply failure must not kill the worker — but a supervision
         signal (cooperative cancellation, a retryable fault that escaped
         its pool) must stay loud, not be absorbed as if the job merely
         misbehaved.  Settle the accounting first so a concurrent drain
         cannot hang on the inflight count. *)
      let signal, escaped =
        match process t job ~wait_ns verdict with
        | s -> (s, None)
        | exception ((Cancel.Cancelled _ | Pool.Transient _) as e) ->
            (Sig_none, Some e)
        | exception _ -> (Sig_none, None)
      in
      settle t job;
      Mutex.lock t.mu;
      (match signal with
      | Sig_success -> Aimd.on_success t.aimd
      | Sig_congestion ->
          Aimd.on_congestion t.aimd ~now:(Float.of_int (Clock.now_ns ()) /. 1e9)
      | Sig_none -> ());
      Registry.set t.g_limit (Aimd.limit t.aimd);
      t.inflight <- t.inflight - 1;
      Registry.set t.g_inflight t.inflight;
      (* A freed slot (or a raised limit) may unblock a gated peer. *)
      Condition.broadcast t.nonempty;
      if t.inflight = 0 && Deque.is_empty t.queue then
        Condition.broadcast t.idle;
      Mutex.unlock t.mu;
      match escaped with Some e -> raise e | None -> loop ()
    end
  in
  loop ()

(* ------------------------------------------------------------- admission *)

(* A fleet member announces which replica it is in every health/stats
   reply, so a drill (or an operator) can tell the replicas apart by
   asking them rather than by remembering socket paths. *)
let replica_field t =
  match t.config.name with
  | None -> []
  | Some n -> [ ("replica", Json.String n) ]

let stats_json t =
  Mutex.lock t.mu;
  let queue = Deque.length t.queue
  and inflight = t.inflight
  and limit = Aimd.limit t.aimd
  and overloaded = Codel.overloaded t.codel
  and conns = List.length t.conns
  and draining = t.is_draining in
  Mutex.unlock t.mu;
  Json.Obj
    (replica_field t
    @ [
      ("state", Json.String (if draining then "draining" else "serving"));
      ("uptime_s", Json.Float (Clock.now_s () -. t.started_at));
      ("queue_depth", Json.Int queue);
      ("inflight", Json.Int inflight);
      ("concurrency_limit", Json.Int limit);
      ("overloaded", Json.Bool overloaded);
      ("connections", Json.Int conns);
      ("metrics", Registry.to_json t.reg);
    ])

let health_json t =
  Mutex.lock t.mu;
  let draining = t.is_draining in
  Mutex.unlock t.mu;
  Json.Obj
    (replica_field t
    @ [
        ("state", Json.String (if draining then "draining" else "serving"));
        ("uptime_s", Json.Float (Clock.now_s () -. t.started_at));
      ])

let admit t conn id ~budget_ms op =
  Mutex.lock t.mu;
  if t.is_draining then begin
    Mutex.unlock t.mu;
    reply_error t conn ?id Protocol.kind_draining
      "server is draining and refuses new requests"
  end
  else if Deque.length t.queue >= t.config.queue_depth then begin
    (* Load shedding: overload is an immediate, explicit answer — the one
       thing the server never does with excess work is buffer it
       silently. *)
    Registry.incr t.c_shed;
    Registry.incr t.c_shed_depth;
    let hint = hint_locked t in
    let inflight = t.inflight in
    Mutex.unlock t.mu;
    reply_error t conn ?id ~retry_after_ms:hint Protocol.kind_overloaded
      (Printf.sprintf "admission queue full (%d queued, %d in flight)"
         t.config.queue_depth inflight)
  end
  else begin
    let job =
      {
        req_id = id;
        jop = op;
        jbudget_ms = budget_ms;
        jconn = conn;
        admitted_ns = Clock.now_ns ();
        jcancel = Cancel.create ();
        pool_cancel = None;
      }
    in
    conn.refs <- conn.refs + 1;
    conn.jobs <- job :: conn.jobs;
    Deque.push_back t.queue job;
    Registry.set t.g_queue (Deque.length t.queue);
    Condition.signal t.nonempty;
    Mutex.unlock t.mu
  end

(* Best-effort id recovery for requests that fail validation: echo the id
   if it is at least shaped like one. *)
let salvage_id json =
  match Json.member "id" json with
  | Some (Json.Int _ as id) | Some (Json.String _ as id) -> Some id
  | _ -> None

let handle t conn json =
  (* The "decode" span covers request validation, on the reader thread —
     it precedes admission, so it sits just before the queue-wait span on
     the request's timeline. *)
  let t0 = if Tracer.enabled () then Clock.now_ns () else 0 in
  let decoded = Protocol.parse_request json in
  if Tracer.enabled () then begin
    let id =
      match decoded with
      | Ok { Protocol.id; _ } -> id
      | Error _ -> salvage_id json
    in
    Tracer.emit ~args:(span_id_args id) ~tid:(span_tid ()) ~ts_ns:t0
      ~dur_ns:(Clock.now_ns () - t0)
      "decode"
  end;
  match decoded with
  | Error message ->
      Registry.incr (counter_for t.c_requests "invalid");
      reply_error t conn ?id:(salvage_id json) Protocol.kind_usage message
  | Ok { id; op; budget_ms } -> (
      Registry.incr (counter_for t.c_requests (Protocol.op_name op));
      match op with
      | Protocol.Health -> reply_ok t conn ?id (health_json t)
      | Protocol.Stats -> reply_ok t conn ?id (stats_json t)
      | Protocol.Sim _ | Protocol.Miss_curve _ ->
          admit t conn id ~budget_ms op)

let reader t conn =
  let rec loop () =
    match
      Frame.read_fd ~frame_timeout:t.config.frame_timeout conn.fd
    with
    | Frame.Eof -> ()
    | Frame.Frame json ->
        handle t conn json;
        if conn.alive then loop ()
    | Frame.Bad_payload e ->
        (* The frame boundary is intact: answer and keep serving. *)
        Registry.incr t.c_faults;
        reply_error t conn Protocol.kind_protocol (Frame.string_of_error e);
        if conn.alive then loop ()
    | Frame.Fault e ->
        Registry.incr t.c_faults;
        reply_error t conn Protocol.kind_protocol (Frame.string_of_error e)
    | Frame.Timed_out ->
        Registry.incr t.c_faults;
        reply_error t conn Protocol.kind_protocol
          (Printf.sprintf
             "frame not delivered within %gs (slow-loris guard)"
             t.config.frame_timeout)
  in
  (* Any stream fault tears the connection down; only supervision signals
     are allowed back out (after the teardown, so the refcount stays
     right). *)
  let escaped =
    match loop () with
    | () -> None
    | exception ((Cancel.Cancelled _ | Pool.Transient _) as e) -> Some e
    | exception _ -> None
  in
  disconnect t conn;
  match escaped with Some e -> raise e | None -> ()

(* ------------------------------------------------------------- accepting *)

let register_conn t cfd =
  (try Unix.setsockopt_float cfd Unix.SO_SNDTIMEO write_timeout
   with Unix.Unix_error _ | Invalid_argument _ -> ());
  Registry.incr t.c_accepted;
  Mutex.lock t.mu;
  if List.length t.conns >= max_connections then begin
    Registry.incr t.c_shed;
    Registry.incr t.c_shed_depth;
    let hint = hint_locked t in
    Mutex.unlock t.mu;
    let tmp =
      { fd = cfd; wmu = Mutex.create (); alive = true; refs = 1; jobs = [] }
    in
    reply_error t tmp ~retry_after_ms:hint Protocol.kind_overloaded
      (Printf.sprintf "connection limit reached (%d)" max_connections);
    try Unix.close cfd with Unix.Unix_error _ -> ()
  end
  else begin
    let conn =
      { fd = cfd; wmu = Mutex.create (); alive = true; refs = 1; jobs = [] }
    in
    t.conns <- conn :: t.conns;
    Registry.set t.g_conns (List.length t.conns);
    Mutex.unlock t.mu;
    (* Readers are blocking-I/O multiplexers that live as long as their
       connection, which the per-task pool cannot express; simulation work
       itself runs on Gc_exec.Pool (see [process]). *)
    ignore (Thread.create (reader t) conn [@lint.allow "spawn-outside-pool"])
  end

let acceptor t fd =
  let rec loop () =
    if not t.is_draining then begin
      (match Unix.select [ fd ] [] [] 0.1 with
      | [], _, _ -> ()
      | _ -> (
          match Unix.accept ~cloexec:true fd with
          | cfd, _ -> register_conn t cfd
          | exception
              Unix.Unix_error
                ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR | Unix.ECONNABORTED), _, _)
            -> ())
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      loop ()
    end
  in
  let escaped =
    match loop () with
    | () -> None
    | exception ((Cancel.Cancelled _ | Pool.Transient _) as e) -> Some e
    | exception _ -> None
  in
  (try Unix.close fd with Unix.Unix_error _ -> ());
  match escaped with Some e -> raise e | None -> ()

(* -------------------------------------------------------------- creation *)

let bind_unix path =
  (* A socket file left by a dead server must not block restarts, but a
     live server's must: probe it. *)
  if Sys.file_exists path then begin
    match (Unix.stat path).Unix.st_kind with
    | Unix.S_SOCK -> (
        let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        match Unix.connect probe (Unix.ADDR_UNIX path) with
        | () ->
            Unix.close probe;
            failwith
              (Printf.sprintf "socket %s is already being served" path)
        | exception Unix.Unix_error (Unix.ECONNREFUSED, _, _) ->
            Unix.close probe;
            Sys.remove path
        | exception e ->
            (try Unix.close probe with Unix.Unix_error _ -> ());
            raise e)
    | _ ->
        failwith (Printf.sprintf "%s exists and is not a socket" path)
  end;
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.bind fd (Unix.ADDR_UNIX path)
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  Unix.listen fd 64;
  fd

let bind_tcp host port =
  let addr =
    try Unix.inet_addr_of_string host
    with Failure _ -> (
      match Unix.getaddrinfo host "" [ Unix.AI_FAMILY Unix.PF_INET ] with
      | { Unix.ai_addr = Unix.ADDR_INET (a, _); _ } :: _ -> a
      | _ -> failwith (Printf.sprintf "cannot resolve host %S" host))
  in
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt fd Unix.SO_REUSEADDR true;
     Unix.bind fd (Unix.ADDR_INET (addr, port));
     Unix.listen fd 64
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  fd

let create config =
  if config.socket_path = None && config.tcp = None then
    invalid_arg "Server.create: no listener configured (socket_path or tcp)";
  if config.queue_depth < 1 then invalid_arg "Server.create: queue_depth < 1";
  if config.workers < 1 then invalid_arg "Server.create: workers < 1";
  if config.codel_target > 0. && config.codel_interval <= 0. then
    invalid_arg "Server.create: codel_interval <= 0 with codel enabled";
  if config.retry_after_ms < 1 then
    invalid_arg "Server.create: retry_after_ms < 1";
  (* A client closing mid-write must be an EPIPE, not a process kill. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  (* Bind in a fixed order; a failed create must leave nothing bound
     behind, or the port stays taken for the life of the process. *)
  let unix_fd = Option.map bind_unix config.socket_path in
  let tcp_fd =
    match config.tcp with
    | None -> None
    | Some (h, p) -> (
        match bind_tcp h p with
        | fd -> Some fd
        | exception e ->
            Option.iter
              (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
              unix_fd;
            Option.iter
              (fun path -> try Sys.remove path with Sys_error _ -> ())
              config.socket_path;
            raise e)
  in
  let listeners = List.filter_map Fun.id [ unix_fd; tcp_fd ] in
  if config.trace <> None then Tracer.start ();
  let reg = Registry.create () in
  let t =
    {
      config;
      reg;
      mu = Mutex.create ();
      nonempty = Condition.create ();
      idle = Condition.create ();
      queue = Deque.create ();
      aimd =
        Aimd.create
          ~cooldown:
            (if config.codel_interval > 0. then config.codel_interval else 0.5)
          ~max_limit:config.workers ();
      codel =
        Codel.create ~target:config.codel_target
          ~interval:config.codel_interval;
      hint_rng = Gc_trace.Rng.create config.seed;
      inflight = 0;
      is_draining = false;
      stopped = false;
      conns = [];
      started_at = Clock.now_s ();
      listeners;
      acceptors = [];
      workers = [];
      c_requests =
        List.map
          (fun op -> (op, Registry.counter reg ~labels:[ ("op", op) ] "requests"))
          ops;
      c_replies =
        List.map
          (fun k -> (k, Registry.counter reg ~labels:[ ("status", k) ] "replies"))
          reply_kinds;
      c_shed = Registry.counter reg "shed";
      c_shed_depth = Registry.counter reg "shed_depth";
      c_shed_sojourn = Registry.counter reg "shed_sojourn";
      c_shed_expired = Registry.counter reg "shed_expired";
      c_faults = Registry.counter reg "protocol_faults";
      c_io_errors = Registry.counter reg "io_errors";
      c_disconnects = Registry.counter reg "mid_request_disconnects";
      c_accepted = Registry.counter reg "connections_accepted";
      g_queue = Registry.gauge reg "queue_depth";
      g_inflight = Registry.gauge reg "inflight";
      g_limit = Registry.gauge reg "concurrency_limit";
      g_conns = Registry.gauge reg "connections";
      h_latency =
        List.filter_map
          (fun op ->
            if op = "health" || op = "stats" || op = "invalid" then None
            else
              Some
                (op, Registry.histogram reg ~labels:[ ("op", op) ] "latency_us"))
          ops;
      h_queue_wait =
        List.map
          (fun o ->
            (o, Registry.histogram reg ~labels:[ ("outcome", o) ] "queue_wait_us"))
          wait_outcomes;
    }
  in
  Registry.set t.g_limit (Aimd.limit t.aimd);
  (* Workers and acceptors are process-lifetime service threads blocking
     in accept/condition-wait — not tasks with a start and an end, so the
     supervised pool is the wrong shape for them.  The jobs they carry do
     run on Gc_exec.Pool. *)
  t.workers <-
    List.init config.workers (fun _ ->
        Thread.create worker_loop t [@lint.allow "spawn-outside-pool"]);
  t.acceptors <-
    List.map
      (fun fd -> Thread.create (acceptor t) fd [@lint.allow "spawn-outside-pool"])
      listeners;
  t

(* ---------------------------------------------------------------- drain *)

let draining t =
  Mutex.lock t.mu;
  let d = t.is_draining in
  Mutex.unlock t.mu;
  d

let registry t = t.reg

let drain t =
  Mutex.lock t.mu;
  let first = not t.is_draining in
  t.is_draining <- true;
  Condition.broadcast t.nonempty;
  Mutex.unlock t.mu;
  if not first then
    (* A concurrent drain is already running; wait for it to finish. *)
    while not t.stopped do Thread.delay 0.02 done
  else begin
    (* Stage 1: stop accepting.  The acceptors see the flag within one
       select tick and close the listener fds. *)
    List.iter Thread.join t.acceptors;
    (match t.config.socket_path with
    | Some p -> ( try Sys.remove p with Sys_error _ -> ())
    | None -> ());
    (* Stage 2: answer everything already admitted.  Readers still answer
       health/stats and refuse new work with a "draining" reply. *)
    Mutex.lock t.mu;
    while not (Deque.is_empty t.queue && t.inflight = 0) do
      Condition.wait t.idle t.mu
    done;
    Mutex.unlock t.mu;
    List.iter Thread.join t.workers;
    (* Stage 3: release the connections.  Shutting down the receive side
       pops every reader out of its blocking read with a clean EOF; the
       last reference closes each fd. *)
    let rec sweep () =
      Mutex.lock t.mu;
      let remaining = t.conns in
      Mutex.unlock t.mu;
      if remaining <> [] then begin
        List.iter
          (fun c ->
            try Unix.shutdown c.fd Unix.SHUTDOWN_RECEIVE
            with Unix.Unix_error _ -> ())
          remaining;
        Thread.delay 0.02;
        sweep ()
      end
    in
    sweep ();
    (* The trace artifact is written by the drain that did the work, once
       every span-producing thread has stopped. *)
    (match t.config.trace with
    | Some path ->
        Gc_obs.Export.write_json_atomic path
          (Gc_prof.Chrome.to_json (Tracer.dump ()))
    | None -> ());
    t.stopped <- true
  end

let manifest t =
  Gc_obs.Manifest.make ~tool:"gcserved" ~command:"serve"
    ~wall_time_s:(Clock.now_s () -. t.started_at)
    ~extra:
      ((match t.config.name with
       | None -> []
       | Some n -> [ ("replica", Json.String n) ])
      @ [
          ("status", Json.String (if t.stopped then "drained" else "serving"));
          ("server", Registry.to_json t.reg);
        ])
    []

let run ?manifest_path config =
  let t = create config in
  Gc_exec.Supervisor.with_interrupt
    ~message:"gcserved: draining (signal again to hard-exit)" (fun token ->
      let rec wait () =
        if not (Cancel.requested token) then begin
          (try Thread.delay 0.2 with Unix.Unix_error (Unix.EINTR, _, _) -> ());
          wait ()
        end
      in
      wait ();
      drain t;
      match manifest_path with
      | Some path ->
          Gc_obs.Export.write_json_atomic path
            (Gc_obs.Manifest.to_json (manifest t))
      | None -> ())
