(** Belady's furthest-next-use rule in the paper's three offline forms.

    Each policy evicts the resident unit whose next use is furthest in the
    future; they differ in the unit (an item, or a whole block) and in what
    a miss loads.

    A policy must be driven with exactly the trace it was created from, in
    order; it raises [Invalid_argument] otherwise. *)

val create : k:int -> Gc_trace.Trace.t -> Gc_cache.Policy.t
(** Belady's MIN (["belady"]): offline-optimal {e item-granularity}
    replacement.  A miss loads only the requested item — optimal for
    traditional caching (unit size, unit cost), and therefore the optimal
    {e Item Cache} in GC caching (spatial loads are what it forgoes).
    [k >= 1]. *)

val block : k:int -> Gc_trace.Trace.t -> Gc_cache.Policy.t
(** Block MIN (["block-belady"]): the offline-optimal {e Block Cache}.

    Loads and evicts whole blocks; the victim is the block whose next
    reference (to any of its items) is furthest in the future.  Optimal
    among block-granularity policies by Belady's argument applied to the
    block-projected trace.  [k >= block size]. *)

val clairvoyant : k:int -> Gc_trace.Trace.t -> Gc_cache.Policy.t
(** A clairvoyant GC-caching heuristic (["clairvoyant"]): feasible,
    near-optimal schedules.

    Offline GC caching is NP-complete (Theorem 1), so no polynomial exact
    policy exists unless P = NP.  This policy produces a {e feasible}
    offline schedule whose cost upper-bounds OPT's:

    - on a miss it loads the requested item plus, nearest-next-use first,
      any uncached items of the block whose next use precedes the next use
      of the item that would have to be evicted to make room for them
      (spatial loads are free, so a block-mate used sooner than the current
      furthest-use resident is always worth swapping in);
    - it evicts the cached item with the furthest next use (Belady rule).

    On the paper's lower-bound traces this heuristic realizes exactly the
    offline behaviour the proofs prescribe, so it certifies the adversary's
    claimed OPT cost; on small instances tests compare it against
    {!Exact_gc}.  [k >= 1]. *)

val cost : (k:int -> Gc_trace.Trace.t -> Gc_cache.Policy.t) -> k:int -> Gc_trace.Trace.t -> int
(** [cost make ~k trace] is the total misses of [make ~k trace] driven
    with [trace], e.g. [cost clairvoyant ~k trace]. *)
