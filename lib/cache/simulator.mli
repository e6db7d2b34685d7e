(** Trace-driven simulation of a policy, with invariant checking.

    The simulator feeds requests to a policy, accumulates {!Metrics.t}, and —
    unless created with [check:false] — audits every reported outcome against
    a shadow cache it maintains from those outcomes:
    - hits must be on shadow-cached items, misses on absent ones;
    - on a miss, every loaded item belongs to the requested item's block, the
      requested item is among them, loads are distinct and were absent
      (Definition 1 of the paper);
    - evicted items were cached and are gone afterwards;
    - the requested item is cached after the access;
    - occupancy never exceeds [k].

    Violations raise {!Model_violation}.

    {2 Cost}

    The shadow cache is one byte per item: seen, loaded-unreferenced or
    referenced, plus a mark bit the miss audit uses to find items loaded
    twice.  The bytes are indexed by item id; ids too sparse for that
    (spaced far beyond the number of distinct items), and negative ids, go
    to an int-keyed table ({!Int_table}) instead, so memory stays
    proportional to the distinct items.

    Every access, audited or not, takes one bookkeeping step: the eight
    counters, and the shadow bytes the outcome changes.  Unaudited, it
    reads the requested item's byte before the policy runs and writes it
    once after; each evicted or loaded item's byte is read and written
    once (the requested item's own load is folded into its one write).  A
    dense id takes one bounds test to reach its byte.  With [check:false]
    and no probe, a hit allocates nothing and a miss nothing beyond the
    policy's own outcome, and a whole {!run} nothing per access beyond
    them; the test suite counts these exactly.  With [check], the outcome
    is audited against the shadow before the bookkeeping step and the
    policy's state after it.

    {2 Observability}

    Any policy becomes observable without modification by attaching a
    [probe] — a {!Gc_obs.Sink.t} receiving the structured event stream
    documented in {!Gc_obs.Event}.  Without a probe the simulator
    constructs no events (emission points are guarded on the option), so
    the unobserved hot path is unchanged.

    {2 Supervision}

    A [progress] callback, when supplied, fires with the access index every
    4096 accesses (and on access 0).  It exists as a cooperative
    cancellation point for supervised sweeps: passing
    [fun _ -> Gc_exec.Cancel.poll ()] lets a deadline or interrupt stop a
    long simulation mid-trace by raising {!Gc_exec.Cancel.Cancelled}.
    Without it the hot path pays one branch per access. *)

exception Model_violation of string

type t
(** A stateful simulation driver (policy + shadow cache + counters). *)

val create :
  ?check:bool ->
  ?probe:(Gc_obs.Event.t -> unit) ->
  ?progress:(int -> unit) ->
  Policy.t ->
  Gc_trace.Block_map.t ->
  t
(** [create policy blocks] prepares a driver.  [check] defaults to [true];
    [probe] and [progress] default to absent (no events, no callbacks). *)

val access : t -> int -> Policy.outcome
(** Feed one request; updates metrics and (in check mode) audits the
    outcome. *)

val metrics : t -> Metrics.t
(** Counters accumulated so far (live reference, not a copy). *)

val policy : t -> Policy.t

val run :
  ?check:bool ->
  ?probe:(Gc_obs.Event.t -> unit) ->
  ?progress:(int -> unit) ->
  Policy.t ->
  Gc_trace.Trace.t ->
  Metrics.t
(** Simulate a whole trace from a fresh driver. *)

val run_with :
  ?check:bool ->
  ?probe:(Gc_obs.Event.t -> unit) ->
  ?progress:(int -> unit) ->
  f:(int -> int -> Policy.outcome -> unit) ->
  Policy.t ->
  Gc_trace.Trace.t ->
  Metrics.t
(** Like {!run}, but also calls [f pos item outcome] after every access. *)
