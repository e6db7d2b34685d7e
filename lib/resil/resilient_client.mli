(** A {!Gc_serve.Client} that survives restarts, over one endpoint or a
    replica set.

    One value per dependency (or per hammer thread): it owns a connection
    per endpoint that it transparently re-establishes, and a
    {!Gc_exec.Retry} policy.  What a caller gets beyond the raw client:

    - {b automatic reconnect} — a [Refused]/[Reset]/[Timeout] transport
      failure drops the cached connection and the retry policy dials
      again, so a server restart (e.g. under [gcserved supervise]) costs
      one backoff delay, not an error surfaced to the caller;
    - {b retry keyed on the id echo} — every request is stamped with a
      fresh [id] (unless the caller set one); a reply whose echoed id
      differs is a stale leftover on a reused stream, {e proving} the
      reply is not ours — the connection is dropped and the request
      retried.  Every protocol op is a pure computation, so any request
      may be sent again; [Protocol]-kind faults never retry;
    - {b clean overloaded/expired/draining classification} — a framed
      ["overloaded"] or ["expired"] reply is retried with backoff (the
      shed was the server asking for exactly that) and surfaces as
      {!Rejected} when the attempts are out; a ["draining"] reply is
      never retried — the server is going away, and hammering it would
      fight the drain;
    - {b a success-coupled retry budget} — every retry costs a
      {!Gc_admit.Token_bucket} token, and tokens refill only on
      successful requests.  Against a collapsing server the budget
      drains and retries stop, which is what lets the server come back
      (naive unbudgeted retries hold an overload in its metastable
      state).  Pass [~retry_budget:None] to opt out — the chaos drills
      do, to demonstrate the collapse;
    - {b server backoff hints honoured} — a shed reply's
      [retry_after_ms] stretches the next retry delay to at least the
      hinted, server-jittered value, desynchronizing the retrying fleet.

    Over a replica set ({!create_set} with two or more endpoints) it
    also gives:

    - {b health-aware routing} via an {!Endpoint_pool}: up / suspect /
      down states driven by observed outcomes, jittered re-probe of down
      replicas, power-of-two-choices on observed latency (deterministic
      rotation until two latency samples exist, or with [p2c] off);
    - {b transparent failover} — a [Refused]/[Timeout]/[Reset] failure
      moves to another replica {e within} the same attempt, with no
      backoff delay; an endpoint whose breaker is open is skipped before
      anything is sent.  Backoff only happens between whole rounds, when
      every eligible replica has failed;
    - {b per-endpoint breakers} — one {!Breaker} per replica, so a single melting endpoint trips in isolation while the
      rest of the set keeps serving.  A one-endpoint client has no
      breaker: with nowhere else to route, an open circuit could only
      turn its retries into {!Open_circuit};
    - {b hedged requests} (opt-in) — when a request has not settled
      within a fixed hedge delay, a second attempt fires at
      another Up replica.  First reply wins; the loser's blocked read is
      woken by a socket shutdown and its result discarded, which the
      id-echo dedupe makes safe.  Hedges only target replicas with a Closed breaker, so a
      cancelled loser can never strand the half-open probe slot.

    Other error replies (usage, timeout, exception, model-violation) are
    answers, not failures: they come back as [Ok reply] for the caller to
    interpret, exactly as with the raw client. *)

type t

type failure =
  | Transport of Gc_serve.Client.error * int
      (** Classified transport failure and the attempts made. *)
  | Rejected of string * string
      (** The server answered [overloaded]/[expired] (retries exhausted
          or the budget refused them) or [draining]: (kind, message). *)
  | Open_circuit  (** Every breaker refused the call without dialing. *)

val string_of_failure : failure -> string

val create_set :
  ?timeout:float ->
  ?retry:Gc_exec.Retry.policy ->
  ?retry_budget:Gc_admit.Token_bucket.t option ->
  ?hedge:float ->
  ?pool_config:Endpoint_pool.config ->
  ?seed:int ->
  Gc_serve.Client.addr list ->
  t
(** A client over the listed endpoints.  [timeout] (default 60s) bounds
    each attempt's reply wait; [seed] (default 0) seeds the retry jitter
    stream, and [seed + 1] the pool's, so a drill replaying a seed
    replays the backoff schedule.  [retry_budget] defaults to a fresh
    {!Gc_admit.Token_bucket} with its defaults (10 tokens, 0.2 per
    success); [None] disables budgeting, [Some b] shares [b].  [hedge]
    is the hedge delay in seconds; absent, hedging is off.  Requests on
    one [t] are serialized — give each thread its own [t].  Down
    endpoints recover through live-traffic re-probes, or sooner through
    {!probe}.  Raises [Invalid_argument] on an empty endpoint list. *)

val create :
  ?timeout:float ->
  ?retry:Gc_exec.Retry.policy ->
  ?retry_budget:Gc_admit.Token_bucket.t option ->
  ?seed:int ->
  Gc_serve.Client.addr ->
  t
(** [create addr] is [create_set [addr]]: the one-endpoint client. *)

val request : t -> Gc_obs.Json.t -> (Gc_obs.Json.t, failure) result
(** Send one request, retrying, failing over and hedging per policy.
    Every protocol op is a pure computation, so every request is safe to
    send again. *)

val probe : t -> unit
(** Health-check every endpoint whose re-probe deadline has passed,
    updating pool states.  Out-of-band: safe to call from another
    thread while requests are in flight. *)

val close : t -> unit
(** Drop every cached connection (idempotent; [t] remains usable). *)

val pool : t -> Endpoint_pool.t

val reconnects : t -> int
(** Connections established after the first, summed over endpoints — the
    restarts this client has ridden through. *)

val retries : t -> int
(** Attempts beyond the first, summed over all requests. *)

val failovers : t -> int
(** Same-attempt switches to another replica after a transport
    failure or an open breaker. *)

val hedges : t -> int
(** Second attempts fired. *)

val hedge_wins : t -> int
(** Hedged attempts where the {e second} replica's reply won. *)
