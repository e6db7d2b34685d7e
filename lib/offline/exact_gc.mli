(** Exact offline optimum for GC caching by memoized exhaustive search.

    Offline GC caching is NP-complete (Theorem 1), so this solver is
    exponential and intended for small instances: it enumerates, at every
    miss, all subsets of the block to load and all minimal eviction sets,
    memoizing on (position, cache contents).  Items never requested by the
    trace are excluded from loading — bringing them in can only waste space.

    Used to validate the reduction of Theorem 1, the clairvoyant heuristic,
    and every online policy's cost on randomized small instances. *)

val solve : k:int -> Gc_trace.Trace.t -> int
(** Optimal number of misses.  Requires the trace to touch at most 62
    distinct items.  Raises [Failure] if the memo table would exceed
    5,000,000 states. *)

val solve_schedule : k:int -> Gc_trace.Trace.t -> int * Schedule.t
(** Like {!solve}, but also reconstructs one optimal schedule from the memo
    table (per-access loads and evictions) — e.g. to render the paper's
    Figure-2 space-time diagrams with [Gc_plot.Occupancy]. *)
