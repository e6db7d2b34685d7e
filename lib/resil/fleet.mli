(** A replica set of supervised serving daemons.

    [gcserved fleet --replicas N]'s engine: one {!Supervise} loop per
    replica, each in its own thread, each with its own socket and its
    own restart budget.  The budgets are the bulkheads — a replica that
    crash-loops spends {e its} budget and goes dark ([`Gave_up]) while
    the others keep serving; the fleet as a whole only fails when every
    replica has given up.

    {!run} blocks until the shared [stop] token is requested (every
    still-running replica drains) or every replica has given up.
    Supervision events are delivered tagged with the replica index, from
    that replica's own thread. *)

val replica_socket : base:string -> int -> string
(** The fleet's socket naming convention: ["BASE.I"] — e.g.
    [replica_socket ~base:"gcserved.sock" 2 = "gcserved.sock.2"].
    Replica [i]'s server binds this; clients list the same paths. *)

type outcome = {
  replicas : Supervise.outcome array;  (** Indexed by replica. *)
  result : [ `Drained | `All_gave_up ];
      (** [`Drained] when at least one replica was still up to drain at
          stop time; [`All_gave_up] when every restart budget was spent
          — the whole-fleet outage. *)
}

val run :
  ?on_event:(replica:int -> Supervise.event -> unit) ->
  stop:Gc_exec.Cancel.t ->
  Supervise.config array ->
  outcome
(** Blocks as described above.  Raises [Invalid_argument] on an empty
    config array.  Each config should carry its own child socket and
    [health_addr] (see {!replica_socket}) and ideally its own [seed] so
    backoff jitter never synchronizes across the set. *)
