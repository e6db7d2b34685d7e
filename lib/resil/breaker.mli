(** Circuit breaker: fail fast when a dependency is known-bad.

    Classic three-state machine over a sliding window of outcomes:

    - {b Closed} — normal operation.  Every outcome lands in a ring of
      the last 20 calls; when at least 5 are present and at least half
      of them failed, the breaker opens.
    - {b Open} — calls are refused ({!allow} is [false]) without touching
      the dependency, for 1 second.
    - {b Half_open} — after the cooldown, exactly one probe call is let
      through.  Its success closes the breaker (window reset); its
      failure re-opens it for another cooldown.

    The window, the thresholds and the cooldown are constants.  Time is
    passed in by the caller as [~now], a monotonic reading in seconds
    (the client passes {!Gc_prof.Clock.now_s}), never read here, as
    {!Gc_admit.Codel} and {!Gc_admit.Aimd} take it: tests step a clock
    through the state machine instead of sleeping.

    Thread-safe (one mutex). *)

type state = Closed | Open | Half_open

val state_name : state -> string
(** ["closed" | "open" | "half-open"]. *)

type t

val create : unit -> t

val allow : t -> now:float -> bool
(** May a call proceed at [now]?  Moves [Open -> Half_open] when the
    cooldown has passed (claiming the single probe slot). *)

val record : t -> now:float -> ok:bool -> unit
(** Report the outcome of an allowed call; a trip opens the breaker at
    [now]. *)

val state : t -> state
