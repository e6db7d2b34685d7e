(** A supervised task pool over OCaml 5 domains.

    The one place in the tree that spawns domains: parameter sweeps (via
    {!Checkpoint}) and the server's requests both run here.  Every task
    gets its own {!Cancel.t} token and a worker domain to itself, a
    monitor enforces per-task wall-clock deadlines, {!Transient} failures
    retry through {!Retry} with exponential backoff, and an interrupt
    token drains the pool gracefully (in-flight tasks finish, pending ones
    settle as {!Cancelled}).

    Worker domains outlive the [run] that started them: a domain whose
    task has settled waits, idle, for the next task any [run] in the
    process hands out, and a new domain is spawned only when no idle one
    is left.  A process therefore keeps as many domains as it has ever
    run tasks at once (plus the abandoned ones below).

    Deadline enforcement is two-tier.  At the deadline the task's token is
    requested with {!Cancel.deadline_reason}; a cooperative task (anything
    running under the {!Gc_cache.Simulator} progress hook) raises
    {!Cancel.Cancelled} at its next cancellation point and settles as
    {!Timed_out}.  A task that never reaches a cancellation point is
    abandoned after a grace period — its domain is left running, serves
    no other task until it finishes, and is reaped when the process
    exits — so one wedged cell cannot hang the grid. *)

exception Transient of string
(** A retryable task failure: the only exception the pool retries. *)

val attempt : unit -> int
(** 1-based attempt number of the task running on the calling domain; [1]
    outside the pool.  The [broken:flaky] drill policy keys off this. *)

type 'a outcome =
  | Done of 'a
  | Failed of exn  (** Non-retryable, or retries exhausted. *)
  | Timed_out of float  (** The per-task deadline, in seconds. *)
  | Cancelled  (** Interrupted before completion. *)

type config = {
  domains : int;  (** Max in-flight tasks (each on a domain of its own). *)
  deadline : float option;  (** Per-attempt wall-clock budget, seconds. *)
  grace : float;
      (** Extra seconds after the deadline before an uncooperative task is
          abandoned. *)
  retries : int;  (** Extra attempts granted to {!Transient} failures. *)
  backoff : float;
      (** Sleep after failed attempt [i] is [backoff * 2^(i-1)]: no jitter,
          no cap. *)
  tick : float;  (** Monitor poll interval, seconds. *)
}

val default_config : unit -> config
(** [domains = recommended_domain_count () - 1] (min 1), no deadline,
    grace 0.25s, 1 retry of {!Transient} with 50ms base backoff. *)

val nap : float -> unit
(** Sleep for the given number of seconds, retrying the {e remaining}
    duration when a signal interrupts the sleep (EINTR) — under the
    signal storms a supervised drain produces, a bare [Unix.sleepf]
    collapses into a busy-spin.  This is the tree's one sanctioned
    sleep. *)

val run :
  ?config:config ->
  ?interrupt:Cancel.t ->
  ?on_start:(int -> Cancel.t -> unit) ->
  ?on_outcome:(int -> 'a outcome -> unit) ->
  (cancel:Cancel.t -> 'a) list ->
  'a outcome list
(** Execute the tasks, at most [config.domains] concurrently, returning
    outcomes in input order.  [on_start] runs on the calling domain just
    before each task is handed to a worker domain, exposing the task's own cancel
    token so an external event can cancel one in-flight task without
    touching the rest — the serving layer requests it when the client that
    asked for the task disconnects.  [on_outcome] runs on the calling
    domain the moment each task settles (checkpoint journals hook in
    here).  When [interrupt] is requested, no further tasks start;
    in-flight tasks drain (subject to their deadline) and unstarted ones
    settle as {!Cancelled}. *)
