(** Crash supervision for the serving daemon.

    The engine behind [gcserved supervise]: spawn the serve process as a
    child, watch it, put it back up when it falls over.  The state
    machine (documented with thresholds in doc/ROBUSTNESS.md):

    {v
      spawn -> starting --healthy--> monitoring --exit/wedge--> backoff
                  |                      |                        |
                  | startup_grace        | stop requested         | budget
                  v                      v                        v
                wedge path            drain (SIGTERM,          give up
                                      wait for exit 0)
    v}

    - {b liveness} is probed with the protocol's own [health] op over the
      socket, each probe given 2s to answer — the probe proves the full
      stack (socket, framing, reader) answers, not merely that the pid
      exists;
    - {b crash} (the child exits) and {b wedge} ([wedge_threshold]
      consecutive probe failures while the pid lives; a wedged child is
      SIGTERMed, given 5s, then SIGKILLed) both lead to a
      restart with a {!Gc_exec.Retry}-shaped backoff delay, jitter seeded
      from [seed];
    - the {b restart budget} is a sliding window: when a restart would be
      the [max_restarts + 1]th within [restart_window] seconds, the
      supervisor gives up instead of flapping forever ([`Gave_up] — exit
      3 at the CLI);
    - a {b stale socket} file left by the dead child is the child's own
      bind to clear: the server removes a socket file nothing answers
      on, and refuses one a foreign process serves (the budget then
      stops the flapping);
    - {b stop} (the [stop] token, wired to SIGTERM/SIGINT by the CLI)
      forwards SIGTERM to the child and waits out its own two-stage
      drain; only if the child overstays 30s is it SIGKILLed.

    The supervisor itself is single-threaded and blocking — embed it in a
    thread (as [gcchaos] does) if you need it concurrent. *)

type config = {
  argv : string array;  (** Child command; [argv.(0)] is the executable. *)
  health_addr : Gc_serve.Client.addr;
  health_interval : float;  (** Seconds between probes (default 0.25). *)
  startup_grace : float;
      (** Budget for the first healthy probe after a spawn (default 10). *)
  wedge_threshold : int;
      (** Consecutive failed probes that declare a live pid wedged
          (default 8). *)
  restart_window : float;  (** Sliding budget window, seconds (default 60). *)
  max_restarts : int;  (** Restarts allowed per window (default 5). *)
  backoff : Gc_exec.Retry.policy;  (** Shapes the delay before each respawn. *)
  seed : int;  (** Backoff jitter stream. *)
}

val default_config :
  argv:string array -> health_addr:Gc_serve.Client.addr -> config

type event =
  | Spawned of int  (** pid *)
  | Became_healthy of int
  | Exited of int * Unix.process_status
  | Wedged of int * int  (** pid, consecutive failed probes *)
  | Backing_off of int * float  (** restart ordinal (1-based), delay *)
  | Gave_up of int  (** restarts performed before giving up *)

val event_string : event -> string

type outcome = {
  result : [ `Drained | `Gave_up ];
  restarts : int;  (** Respawns after the initial spawn. *)
}

val run :
  ?on_event:(event -> unit) -> stop:Gc_exec.Cancel.t -> config -> outcome
(** Blocks until [stop] is requested (-> [`Drained], child reaped) or the
    restart budget is spent (-> [`Gave_up], no child running).
    [on_event] fires from the calling thread. *)
