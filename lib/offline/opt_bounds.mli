(** Certified lower bounds on the offline optimum for traces too large for
    {!Exact_gc}.

    Together with a feasible schedule's cost (an upper bound, e.g. from
    {!Belady.clairvoyant}), these bracket OPT and let competitive ratios be
    bounded on arbitrary traces: for online cost [c],
    [c / upper <= c / OPT <= c / lower]. *)

val compulsory : Gc_trace.Trace.t -> int
(** Every distinct block must be loaded at least once: OPT >= number of
    distinct blocks (valid for any cache size). *)

val window_bound : Gc_trace.Trace.t -> h:int -> window:int -> int
(** Partition the trace into consecutive windows of [window] accesses; a
    cache of [h] items covers at most [h] blocks when a window starts, and
    each miss admits items of one block, so OPT misses at least
    [max 0 (distinct_blocks(w) - h)] times in each window [w].  Summed over
    disjoint windows this is a valid lower bound. *)

val best_window_bound : Gc_trace.Trace.t -> h:int -> int
(** {!window_bound} maximized over a geometric grid of window sizes,
    combined with {!compulsory}. *)

val ratio_interval :
  online:int -> Gc_trace.Trace.t -> h:int -> float * float
(** [(lo, hi)] bracketing the true competitive ratio [online / OPT]:
    [lo = online / clairvoyant_cost] (OPT can only be cheaper than the
    clairvoyant schedule) and [hi = online / best_window_bound]. *)
