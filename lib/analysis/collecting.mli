(** Exact collecting-semantics analysis for small caches.

    Instead of abstracting, track the {e set of reachable concrete cache
    states} ({!Cache_model.state}, deduplicated structurally): branches
    union the reachable sets of both arms, loops execute their bodies the
    declared number of times.  A point is [Always_hit] exactly when every
    dynamic execution of it hits in every reachable state, [Always_miss]
    when every one misses — no approximation, so this engine is both the
    most precise classifier and the ground truth the age domain is
    compared against.

    The cost is exponential in branch structure; {!run_exact} caps the
    state-set size and fails rather than degrade silently. *)

val run_exact : Cache_model.config -> Program.t -> Report.point array
(** Classify every point exactly, for any of the three policies.  Raises
    [Failure] if the reachable-state set ever exceeds 65536 states. *)
