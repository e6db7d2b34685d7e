(** A set of ints with O(1) add, remove, membership, and uniform random
    choice — the standard array + position-table structure.  Used by
    {!Random_evict}, {!Fwf} and {!Marking} (marking, block marking, GCM). *)

type t

val create : unit -> t
val size : t -> int
val mem : t -> int -> bool
val add : t -> int -> unit
(** No-op if present. *)

val remove : t -> int -> unit
(** No-op if absent. *)

val random : t -> Gc_trace.Rng.t -> int
(** Uniform random member.  Raises [Invalid_argument] if empty. *)

val iter : (int -> unit) -> t -> unit
val to_list : t -> int list
val clear : t -> unit
