(** Health-aware endpoint selection for a replica set.

    A pool tracks one slot per server address with a three-state health
    machine driven by observed request outcomes:

    - {b Up} — serving normally; eligible for routing.
    - {b Suspect} — one or two consecutive failures; only routed to when
      no Up endpoint is eligible.
    - {b Down} — at least three consecutive failures; parked behind a
      re-probe deadline with 25% jitter.  Once the deadline passes the
      endpoint becomes pickable again exactly once (a live-traffic
      probe); another failure pushes the deadline out with exponential
      backoff, a success returns it to Up.

    Routing is power-of-two-choices on an EWMA of observed latency: pick
    two distinct candidates from the healthiest non-empty tier, keep the
    faster.  Until two candidates have latency samples — or when [p2c]
    is off — the pool falls back to a rotating cursor, which is fully
    deterministic under a fixed request order (the chaos drills rely on
    this).  The EWMA is the only latency the pool keeps: a hedging
    client's delay is the caller's fixed setting, not read from here.

    The pool never dials anything: callers report outcomes via
    {!note_ok} / {!note_failure} (or {!note_probe} for out-of-band
    health probes) and the pool only decides {e where to send next}.

    Thread-safe (one mutex); randomness comes from a seeded
    {!Gc_trace.Rng}.  Time is passed in by the caller as [~now], a
    monotonic reading in seconds (the client passes
    {!Gc_prof.Clock.now_s}), never read here, as {!Breaker} takes it:
    tests step a clock through the health machine instead of sleeping. *)

type state = Up | Suspect | Down

val state_name : state -> string
(** ["up" | "suspect" | "down"]. *)

type config = {
  reprobe_after : float;  (** Base re-probe delay once Down, seconds. *)
  reprobe_max : float;  (** Re-probe backoff ceiling, seconds. *)
  p2c : bool;  (** Power-of-two-choices on EWMA latency; rotation when off. *)
}

val default_config : config
(** Re-probe 0.5s doubling to 10s, p2c on.  The latency EWMA weighs the
    newest sample 0.3. *)

type t

val create : ?config:config -> seed:int -> Gc_serve.Client.addr list -> t
(** Raises [Invalid_argument] on an empty address list, or when
    [reprobe_after <= 0] or [reprobe_max < reprobe_after]. *)

val length : t -> int
val addr : t -> int -> Gc_serve.Client.addr
val state : t -> int -> state

val pick : ?avoid:int list -> t -> now:float -> int
(** Choose an endpoint for the request sent at [now]: healthiest non-empty tier
    (Up, then Suspect plus re-probe-due Down, then Down), p2c or
    rotation within the tier, skipping [avoid] — unless [avoid] covers
    every endpoint, in which case it is ignored (the pool always
    answers; the caller's failover loop bounds its own attempts). *)

val note_ok : t -> int -> latency_s:float -> unit
(** A request to endpoint [i] succeeded in [latency_s] seconds: reset it
    to Up and fold the sample into its EWMA. *)

val note_failure : t -> int -> now:float -> unit
(** A request to endpoint [i] failed at transport level at [now]: bump
    its consecutive-failure count (Suspect / Down per the thresholds) and
    schedule the jittered re-probe from [now]. *)

val note_probe : t -> int -> now:float -> ok:bool -> unit
(** Outcome of an out-of-band health probe: success restores Up (no
    latency sample — probes answer from a hot path and would skew the
    EWMA), failure re-parks the endpoint. *)

val due_probes : t -> now:float -> int list
(** Non-Up endpoints whose re-probe deadline has passed at [now], in index order
    — the set an external prober should health-check now. *)
