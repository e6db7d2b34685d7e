(** A success-coupled token bucket: the client-side retry budget.

    A fleet of retrying clients amplifies an overload — every shed reply
    turns into another request — unless retries are {e paid for}.  This
    bucket holds fractional tokens; a retry costs one token, and tokens
    refill in proportion to {e successes}, not to time: the bucket
    starts full, and each success adds 0.2 tokens.  Against a healthy
    server the bucket stays full and retries are free; against a
    collapsing one successes dry up, the bucket drains, and the fleet's
    retry traffic throttles itself to a fixed multiple of its success
    rate — which is exactly the property that lets a metastable system
    recover.

    No clock, no randomness: the state is a pure fold over the
    take/success event sequence, so behaviour is deterministic under any
    seeded drill. *)

type t

val create : ?capacity:float -> unit -> t
(** A full bucket of [capacity] tokens (default 10.).  Each success
    refills 0.2 tokens: one free retry per five successes, steady-state.
    Raises [Invalid_argument] when [capacity <= 0.] or is NaN or
    infinite. *)

val try_take : t -> bool
(** Spend one token for a retry.  [false] (and a recorded denial) when
    fewer than one token remains — the caller must not retry. *)

val on_success : t -> unit
(** Credit 0.2 tokens, capped at [capacity]. *)

val tokens : t -> float
(** Current level, in [[0, capacity]]. *)

val capacity : t -> float

val denied : t -> int
(** Retries refused so far — the load the budget kept off the wire. *)
