(** Deterministic pseudo-random number generator (splitmix64).

    All randomness in this project flows through this module so that every
    experiment is reproducible from a single integer seed.  Splitmix64 is
    fast, has a full 2^64 period per stream, and supports cheap stream
    splitting, which we use to give independent generators to independent
    workload components. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] returns a fresh generator seeded with [seed]. *)

val copy : t -> t
(** [copy t] is an independent generator with the same current state. *)

val split : t -> t
(** [split t] advances [t] and returns a new generator whose stream is
    independent of [t]'s subsequent output. *)

val int64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)].  [bound] must be positive. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [\[lo, hi\]] inclusive. *)

val bits53 : t -> int
(** [bits53 t] is uniform in [\[0, 2^53)]: the mantissa bits behind
    {!float}.  [float_of_int (bits53 t) /. 0x1p53] draws what
    [float t 1.0] does without boxing the result, which a call across
    modules does to a returned float. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val bool : t -> bool
(** Fair coin flip. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)

val choose : t -> 'a array -> 'a
(** Uniformly random element of a non-empty array. *)

val sample_without_replacement : t -> int -> int -> int array
(** [sample_without_replacement t n bound] draws [n] distinct integers
    uniformly from [\[0, bound)].  Requires [n <= bound]. *)
