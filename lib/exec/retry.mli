(** Retry policy: capped exponential backoff with deterministic jitter.

    The one retry engine in this tree: {!Pool} retries {!Pool.Transient}
    task failures through it, {!Gc_resil.Resilient_client} its requests,
    and the [unbounded-retry] lint rule flags bare retry loops everywhere
    else.  Two properties every retry here gets for free:

    - {b capped exponential backoff} — the delay doubles per attempt from
      [base_delay] up to [max_delay], so a down dependency sees an
      ever-sparser probe stream instead of a busy loop;
    - {b deterministic jitter} — each delay is spread over
      [[1 - jitter, 1] * delay] by a caller-seeded {!Gc_trace.Rng}, so
      concurrent retriers decorrelate {e and} a drill replaying the same
      seed sleeps the same schedule (no [Stdlib.Random], per the
      [nondeterministic-rng] rule).

    [max_attempts] caps every {!run}: no call makes more attempts.

    The driver is [Result]-based on purpose: callers classify their own
    failures first (e.g. {!Gc_serve.Client.error_kind}) and say which are
    retryable.  Exceptions pass through untouched, so cooperative
    cancellation ({!Cancel.Cancelled}) can never be swallowed by a retry
    loop. *)

type policy = {
  max_attempts : int;  (** Total tries, first one included ([>= 1]). *)
  base_delay : float;  (** Delay before attempt 2, seconds. *)
  max_delay : float;  (** Backoff ceiling, seconds. *)
  jitter : float;
      (** Fraction of each delay that is randomized, in [[0, 1]]:
          [0.] = fixed schedule, [0.25] = each delay drawn uniformly
          from [[0.75, 1] * delay]. *)
}

val default : policy
(** 4 attempts, 50ms base, 2s cap, 0.25 jitter. *)

val delay_for : policy -> rng:Gc_trace.Rng.t -> attempt:int -> float
(** The jittered delay after failed [attempt] (1-based): draws one value
    from [rng].  Same seed, same sequence. *)

type 'e give_up = {
  attempts : int;  (** Attempts actually made. *)
  last_error : 'e;
}

val run :
  ?policy:policy ->
  sleep:(float -> unit) ->
  rng:Gc_trace.Rng.t ->
  retryable:('e -> bool) ->
  (attempt:int -> ('a, 'e) result) ->
  ('a, 'e give_up) result
(** [run ~sleep ~rng ~retryable f] calls [f ~attempt:1], [f ~attempt:2],
    ... until one succeeds, an error is not [retryable], or
    [max_attempts] is reached, calling [sleep] with each backoff delay.
    Production callers pass {!Pool.nap} (the EINTR-safe sleep), wrapped
    when they need to act around the wait; unit tests record the
    schedule instead of waiting it out. *)
