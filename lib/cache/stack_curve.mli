(** Miss counts of an LRU policy at many capacities from one pass.

    [lru] is LRU over items, and on a uniform map [block-lru] is LRU over
    blocks with [k / B] slots.  Both are stack algorithms (Mattson et al.,
    IBM Systems Journal 1970): the ids a cache of [c] slots holds are the
    [c] most recently used, at every [c] at once.  So one LRU stack,
    bounded at the largest capacity asked for and cut into segments at
    the others, gives the misses at every capacity in one pass over the
    trace.

    The stack is kept in flat per-id arrays: two links and one segment
    byte per id.  An access found in segment [s] is a miss at every
    capacity below that segment's; it moves to the top, and the deepest
    id of each segment above [s] slides into the next one, so an access
    costs [O(1 + s)].  The pass builds no policy and no
    {!Simulator}. *)

val misses : string -> ks:int list -> Gc_trace.Trace.t -> int list option
(** [misses policy ~ks trace] is, for each [k] of [ks] in order
    (duplicates included), the misses [policy] at capacity [k] takes on
    [trace]: the [misses] of an unaudited {!Simulator.run}.

    [None] when the pass does not apply, and the caller simulates:
    - [policy] is neither ["lru"] nor ["block-lru"], or it is
      ["block-lru"] on an explicit map (a ragged block is not a slot);
    - some [k] is below the policy's unit, 1 item for lru and [B] for
      block-lru, which its constructor rejects;
    - [ks] holds more than 255 capacities in slots (the segment byte);
    - the largest id (an item for lru, a block for block-lru) is too
      far above the trace's length for flat arrays: at least
      [max 65536 (16 * length)], the simulator's rule for its own
      per-item bytes.

    Like the simulator's progress hook, the pass calls
    {!Gc_exec.Cancel.poll} on access 0 and every 4096 accesses after it,
    so a deadline or a disconnect stops it by raising
    {!Gc_exec.Cancel.Cancelled}.  It runs inside one ["run_policy"]
    tracing span with no ["sim.chunk"] children. *)
