(** The supervised simulation daemon behind [gcserved].

    A long-running service accepting {!Protocol} requests over a
    Unix-domain (and optionally TCP) socket with {!Frame} framing.
    Overload and shutdown are first-class protocol states, never hangs:

    - every request is validated against hard caps, then admitted into a
      {e bounded} queue; when the queue is full the client gets an
      immediate framed ["overloaded"] reply (load shedding) instead of
      unbounded buffering;
    - a {!Gc_admit.Codel} controller watches the {e sojourn} of every
      dequeued request and sheds (with LIFO service while overloaded)
      when the queue stays persistently slow, long before it is full;
    - a request's own [budget_ms] is charged for its queue wait: a job
      whose client budget lapsed in the queue is answered ["expired"] and
      {e never executed} (see {!Gc_admit.Deadline});
    - shed and expired replies carry a seeded-jitter [retry_after_ms]
      hint, and dispatch concurrency adapts via an {!Gc_admit.Aimd}
      limit (exported as the [concurrency_limit] gauge);
    - each admitted request runs on a {!Gc_exec.Pool} with a per-attempt
      wall-clock deadline, transient-failure retry, and a grace-period
      abandonment of wedged tasks, so one hostile request cannot pin a
      worker;
    - a client that disconnects mid-request has its in-flight work
      cooperatively cancelled (through {!Gc_exec.Pool.run}'s [on_start]
      token hook) — the worker is reclaimed, not leaked;
    - slow-loris partial frames, oversized frames, and malformed JSON all
      get a framed error reply (see {!Frame.read_outcome}) and the
      connection is dropped only when the stream position is
      unrecoverable;
    - {!drain} (wired to SIGTERM/SIGINT by {!run}) stops accepting,
      refuses new requests with a ["draining"] reply, answers everything
      already admitted, and only then returns.

    Every decision increments a {!Gc_obs.Registry} metric (queue depth,
    in-flight, shed count, per-op latency histograms); the [stats] op and
    the shutdown manifest expose the same registry. *)

type config = {
  socket_path : string option;  (** Unix-domain listener. *)
  tcp : (string * int) option;  (** Optional TCP listener (host, port). *)
  queue_depth : int;  (** Admission-queue bound; beyond it, shed. *)
  workers : int;
      (** Worker threads; also the AIMD limit's ceiling (its floor is 1). *)
  deadline : float;  (** Per-attempt wall-clock budget, seconds. *)
  grace : float;  (** Seconds past deadline before abandoning a wedged task. *)
  retries : int;  (** Extra attempts for {!Gc_exec.Pool.Transient} failures. *)
  backoff : float;  (** Base retry sleep, doubling per attempt. *)
  frame_timeout : float;  (** Whole-frame delivery budget (slow-loris guard). *)
  codel_target : float;
      (** Acceptable queue sojourn, seconds; [<= 0.] disables sojourn
          shedding (and the LIFO-under-overload switch). *)
  codel_interval : float;
      (** How long sojourn must stay above target before shedding starts;
          also the AIMD decrease cooldown. *)
  retry_after_ms : int;
      (** Base backoff hint on shed/expired replies; the wire value is
          jittered uniformly in [[base/2, 3*base/2]] from [seed]. *)
  seed : int;  (** Seeds the retry-after jitter stream (reproducibility). *)
  trace : string option;
      (** When set, {!Gc_prof} span tracing is enabled for the server's
          lifetime and the drain writes a Chrome trace-event JSON
          (Perfetto-loadable) of the recorded request-path spans —
          decode, queue-wait, execute, encode, reply — to this path. *)
  name : string option;
      (** Replica identity within a fleet (e.g. ["replica-2"]): echoed
          as a ["replica"] field in every [health] and [stats] reply,
          and stamped into the shutdown manifest.  [None] (the default)
          omits the field — a standalone server's replies are unchanged. *)
}

val default_config : config
(** No listeners configured (callers must set at least one); queue 64,
    workers = cores - 1 (min 1), deadline 30s, grace 0.25s, 1 retry,
    10s frame timeout, CoDel target 100ms / interval 500ms, retry-after
    base 100ms, seed 0.  Constants: frames are capped at 1 MiB
    (see {!Frame}), connections past 256 are shed,
    and a write to a client that stops reading times out after 5s. *)

type t

val create : config -> t
(** Bind the listeners (a stale Unix socket file left by a dead process is
    detected by a probe connect and replaced; a live one raises), start
    the acceptor and worker threads, and return the running server.
    Raises [Invalid_argument] if no listener is configured, [Failure] or
    [Unix.Unix_error] on bind errors. *)

val drain : t -> unit
(** Two-stage graceful shutdown, idempotent and thread-safe: stop
    accepting, answer every admitted request (new ones are refused with a
    ["draining"] reply), release all connections, stop all threads, and
    remove the socket file.  Returns when the server is fully stopped. *)

val draining : t -> bool
val registry : t -> Gc_obs.Registry.t

val manifest : t -> Gc_obs.Manifest.t
(** A [gcserved]/[serve] run manifest whose [extra] carries the final
    ["server"] registry snapshot (shed count, latency histograms, ...) —
    written as the shutdown artifact by {!run}. *)

val run : ?manifest_path:string -> config -> unit
(** The daemon main loop: {!create}, then block until SIGTERM/SIGINT
    (supervised by {!Gc_exec.Supervisor.with_interrupt} — a second signal
    hard-exits with code 130), then {!drain}, then write the shutdown
    manifest to [manifest_path] (atomic, durable) if given. *)
