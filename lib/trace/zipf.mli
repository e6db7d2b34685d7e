(** Zipfian sampling.

    Real access traces are heavily skewed; Zipf-distributed request streams
    are the standard synthetic stand-in.  [P(rank r) ∝ 1 / r^alpha]. *)

type t

val create : n:int -> alpha:float -> t
(** [create ~n ~alpha] prepares a sampler over ranks [\[0, n)].  [alpha = 0]
    is uniform; [alpha = 1] is classic Zipf.  O(n) setup and a guide
    table of [2^⌈log2 n⌉] cells, so a sample costs O(1) expected: it walks
    forward from its cell's first possible rank, and returns the rank a
    binary search over the CDF would.  Raises [Invalid_argument] if
    [n < 1], if [alpha] is not finite, or if the weights overflow (a
    strongly negative [alpha] over many ranks). *)

val sample : t -> Rng.t -> int
(** Draw one rank. *)

val n : t -> int

val probability : t -> int -> float
(** [probability t r] is the probability of rank [r]. *)
