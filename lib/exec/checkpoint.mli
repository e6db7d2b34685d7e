(** Checkpointed sweep execution: the {!Pool} plus a {!Journal}, giving
    [--resume] semantics to any grid of named cells.

    Each cell is a (key, task) pair whose task produces the cell's JSON
    payload.  As cells settle they are appended to the journal — including
    failed and timed-out cells, shaped by [to_error], so a deterministic
    crash is not pointlessly re-run on resume.  Cells cancelled by an
    interrupt are {e not} journaled and re-run on resume.  On resume,
    journaled cells are returned without re-execution, after verifying the
    journal's metadata header matches this invocation. *)

type cell = {
  key : string;
  payload : Gc_obs.Json.t option;
      (** [None] iff the cell was cancelled by an interrupt. *)
  resumed : bool;  (** Came from the journal, not re-simulated. *)
}

type stats = {
  total : int;
  resumed : int;
  ran : int;  (** Executed (or failed) this run. *)
  cancelled : int;
  interrupted : bool;
}

val run :
  ?config:Pool.config ->
  ?interrupt:Cancel.t ->
  ?journal:string ->
  ?resume:bool ->
  ?meta:Gc_obs.Json.t ->
  to_error:(key:string -> kind:string -> message:string -> Gc_obs.Json.t) ->
  (string * (cancel:Cancel.t -> Gc_obs.Json.t)) list ->
  cell list * stats
(** Results come back in input order regardless of completion order.
    [to_error] shapes a failed cell's payload from its key, an error kind
    and a message: kind ["exception"] with [Printexc.to_string] of what
    the task raised, or kind ["timeout"] for a cell past its deadline.
    An unreadable, corrupt, or mismatched journal raises [Failure] with a
    positioned diagnostic (a runtime failure under the CLI exit-code
    contract). *)
