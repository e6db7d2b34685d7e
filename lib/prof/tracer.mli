(** Lock-free span recording.

    Spans buffer into one ring of preallocated slots for the whole
    process, allocated by {!start}: recording mutates slot fields in
    place (no allocation beyond what the caller passes as [args]), every
    domain and sys-thread claims its slot from one atomic ticket counter,
    and the oldest span is silently overwritten once the ring wraps — a
    tracer never blocks, and its memory does not grow with the number of
    domains or spans.

    When tracing is disabled (the default, and after [stop]) the whole
    layer is a null tracer: [enter] is one [Atomic.get] and returns a
    negative ticket, [leave] on a negative ticket is a no-op, and no
    clock read, GC poll, or allocation happens.  Hot paths can therefore
    stay instrumented permanently. *)

type span = {
  name : string;
  tid : int;  (** domain id, or the caller-supplied thread id *)
  ts_ns : int;  (** monotonic {!Clock} reading at entry *)
  dur_ns : int;
  minor_words : int;
      (** The minor-heap words this domain allocated between [enter] and
          [leave], exact ([Gc.minor_words]).  Major-heap words are not
          recorded: no reading of them is both exact and
          allocation-free. *)
  args : (string * string) list;
}

val start : ?capacity:int -> unit -> unit
(** Enable tracing with a fresh ring of [capacity] slots for the whole
    process (rounded up to a power of two; the default 65536 takes about
    6 MB, 9 MB once every slot has held a span).  This is the only
    allocation of slots.  Spans recorded before a
    [start] are discarded, and a span entered before it is dropped at
    its [leave]. *)

val stop : unit -> unit
(** Disable recording.  Already-recorded spans stay available to
    {!dump}. *)

val enabled : unit -> bool

val enter : ?args:(string * string) list -> ?tid:int -> string -> int
(** Open a span named [name]; returns the ticket to pass to {!leave}.
    [tid] overrides the track id (defaults to the domain id) — servers
    whose workers are sys-threads in one domain pass [Thread.id] so each
    worker gets its own track.  Returns a negative ticket when tracing
    is disabled. *)

val leave : int -> unit
(** Close the span opened by [enter].  Dropped silently if the ring
    wrapped over the slot or tracing was restarted in between, or when
    the ticket is negative. *)

val emit :
  ?args:(string * string) list ->
  ?tid:int ->
  ts_ns:int ->
  dur_ns:int ->
  string ->
  unit
(** Record an already-measured span (for phases whose start predates the
    recording call, e.g. queue wait measured at dequeue).  Emitted spans
    record 0 minor words. *)

val dump : unit -> span list
(** Every completed span in the ring, from all domains, sorted by start
    time, then track id.  Open spans (entered, not yet left) and spans
    lost to ring wraparound are omitted.  Meant to be called once work
    has quiesced. *)
