(** An AIMD (additive-increase / multiplicative-decrease) concurrency
    limiter.

    TCP's congestion-control shape applied to a request pool: every
    success nudges the limit up by [1/limit] (one extra slot per
    limit-many successes), every congestion signal — a request timeout or
    a shed — cuts it to 0.7 of itself, clamped to [[1, max_limit]].
    Decreases are rate-limited to one per [cooldown]
    interval so a single burst of timeouts (which all report the {e same}
    congestion event) does not collapse the limit to the floor in one
    step.

    Time is passed in by the caller (a monotonic reading), never read
    here, so the limiter is a pure state machine: deterministic under
    test, trivially drivable by a property. *)

type t

val create : ?cooldown:float -> max_limit:int -> unit -> t
(** [cooldown] (default 0.5s) spaces decreases.  The limit starts at
    [max_limit] — the server gives itself the benefit of the doubt and
    backs off on evidence.  Raises [Invalid_argument] when
    [max_limit < 1]. *)

val limit : t -> int
(** The current concurrency limit, in [[1, max_limit]]. *)

val on_success : t -> unit
(** Additive increase: [limit += 1/limit], capped at [max_limit]. *)

val on_congestion : t -> now:float -> unit
(** Multiplicative decrease ([limit *= 0.7], floored at 1) —
    at most once per [cooldown] interval; signals inside the window are
    absorbed as part of the same congestion event. *)
