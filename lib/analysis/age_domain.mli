(** Must/may age-bound abstract domain for set-associative LRU.

    The classic WCET-style cache abstraction (Ferdinand's must/may
    analysis): for each item the {e must} map holds an upper bound on its
    LRU age (stack position within its set, 0 = most recent) valid in
    {e every} reaching concrete state — presence in [must] guarantees the
    item is cached.  The {e may} map holds a lower bound valid in every
    state — absence from [may] guarantees the item is {e not} cached.
    Bounds live in [0 .. ways-1]; an item whose bound reaches [ways] is
    dropped from the map.

    Soundness invariant (checked by the qcheck properties and the
    cross-validation harness): if concrete state [c] is reachable and
    abstract state [d] covers that program point, then {!concretizes}
    [d c] holds, and therefore {!classify} never contradicts the concrete
    hit/miss outcome.

    The domain models LRU only; FIFO and PLRU ages do not decay with this
    transfer and are covered by the exact engine ({!Collecting}). *)

type t

val init : t
(** The cold cache: [must] empty (no guarantees), [may] empty (nothing
    can be cached) — exact for an empty cache. *)

val equal : t -> t -> bool

val leq : t -> t -> bool
(** [leq d1 d2]: [d1] is at least as precise as [d2] (every concrete
    state covered by [d1] is covered by [d2]). *)

val join : t -> t -> t
(** Least upper bound: [must] intersects keys keeping the max bound,
    [may] unions keys keeping the min bound. *)

val widen : t -> t -> t
(** [widen old next] accelerates: [must] drops items whose bound grew,
    [may] resets grown entries to bound 0.  Above {!join}[ old next];
    chains stabilize because a program touches finitely many items. *)

val transfer : ?unsound:bool -> Cache_model.config -> t -> int -> t
(** Abstract effect of accessing an item.  With [~unsound:true] the
    [must] map skips aging other items — a deliberately broken domain the
    cross-validation harness must catch (it manufactures [Always_hit]
    claims the simulator refutes). *)

val classify : t -> int -> Report.verdict
(** [Always_hit] if in [must], [Always_miss] if absent from [may],
    [Unknown] otherwise. *)

val must_age : t -> int -> int option

val concretizes : Cache_model.config -> t -> Cache_model.state -> bool
(** Whether a concrete LRU state is described by the abstract state: every
    [must] item is cached within its bound, and every cached item appears
    in [may] with a bound at or below its true age.  Meaningful for
    [Lru_s] states only (others return [false]). *)
