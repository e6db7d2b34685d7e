(** Fault classes and the injection spec grammar.

    Each class names one way a policy implementation could lie to (or
    drift from) the simulator's shadow audit.  The taxonomy mirrors the
    audit in {!Gc_cache.Simulator} one check per class, so the coverage
    matrix ({!Coverage}) can prove every check actually fires. *)

type fault_class =
  | Phantom_hit  (** Report a hit on an item that is not cached. *)
  | Phantom_miss  (** Report a miss on an item that is cached. *)
  | Drop_requested  (** Miss whose load list omits the requested item. *)
  | Wrong_block_load  (** Load an item from a different block. *)
  | Double_load  (** List the same item twice in one load. *)
  | Reload_cached  (** Load an item that is already cached. *)
  | Spurious_evict  (** Evict an item that was never cached. *)
  | Ghost_evict  (** Claim an eviction while secretly keeping the item. *)
  | Hidden_evict
      (** Evict an item but hide it from the report.  The audit cannot see
          this at the faulting access; it is caught later, when the
          secretly-evicted item is re-requested and the policy reports a
          miss on an item the audit still believes cached. *)
  | Over_occupancy  (** Report occupancy above the capacity [k]. *)

type t = {
  fault : fault_class;
  at : int;
      (** Arm index: the fault fires once, at the first {e eligible} access
          whose index is [>= at] (e.g. [Phantom_miss] needs a hit to
          corrupt, so it waits for one). *)
}

val all : fault_class list
(** Every class, in declaration order. *)

val to_string : fault_class -> string
(** Kebab-case name, e.g. ["phantom-hit"]. *)

val of_string : string -> fault_class option

val parse : string -> (t, string) result
(** Spec grammar: [CLASS] or [CLASS@INDEX] (["spurious-evict@250"]).
    [Error] carries a message listing the valid classes. *)

val spec_string : t -> string
(** Inverse of {!parse}. *)
