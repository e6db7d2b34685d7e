(** Circuit breaker: fail fast when a dependency is known-bad.

    Classic three-state machine over a sliding window of outcomes:

    - {b Closed} — normal operation.  Every outcome lands in a ring of
      the last [window] calls; when at least [min_samples] are present
      and the failure fraction reaches [failure_threshold], the breaker
      opens.
    - {b Open} — calls are refused ({!allow} is [false]) without touching
      the dependency, for [cooldown] seconds on the monotonic
      {!Gc_prof.Clock}.
    - {b Half_open} — after the cooldown, exactly one probe call is let
      through.  Its success closes the breaker (window reset); its
      failure re-opens it for another cooldown.

    Thread-safe (one mutex). *)

type state = Closed | Open | Half_open

val state_name : state -> string
(** ["closed" | "open" | "half-open"]. *)

type config = {
  window : int;  (** Outcomes remembered ([>= 1]). *)
  min_samples : int;  (** Outcomes required before the rate can trip. *)
  failure_threshold : float;  (** Failure fraction in [[0, 1]] that opens. *)
  cooldown : float;  (** Seconds open before the half-open probe. *)
}

val default_config : config
(** Window 20, min 5 samples, threshold 0.5, cooldown 1s. *)

type t

val create : ?config:config -> unit -> t

val allow : t -> bool
(** May a call proceed right now?  Moves [Open -> Half_open] when the
    cooldown has passed (claiming the single probe slot). *)

val record : t -> ok:bool -> unit
(** Report the outcome of an allowed call. *)

val state : t -> state
