(** Variable-size caching in the fault model (Chrobak et al.), with an exact
    solver.

    Items have integer sizes; every miss costs 1 regardless of size.  This
    is the problem the paper reduces {e from} to prove GC caching
    NP-complete (Theorem 1); the exact solver lets tests verify that the
    reduction preserves optimal cost. *)

type instance = {
  sizes : int array;  (** [sizes.(v)] is the size of item [v]; all [>= 1]. *)
  capacity : int;
  requests : int array;  (** Requests over items [0 .. |sizes| - 1]. *)
}

val validate : instance -> unit
(** Raises [Invalid_argument] on malformed instances (empty sizes, items out
    of range, an item larger than the cache that is requested, ...). *)

val exact : instance -> int
(** Optimal number of misses (memoized exhaustive search; small instances
    only, at most 30 items).  Raises [Failure] if the memo table would
    exceed 5,000,000 states. *)

val random_instance :
  Gc_trace.Rng.t ->
  n_items:int ->
  max_size:int ->
  capacity:int ->
  length:int ->
  instance
(** Random instance generator for property tests; sizes are uniform in
    [\[1, max_size\]] and capped at [capacity]. *)
