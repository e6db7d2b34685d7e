(** LRU-K (O'Neil, O'Neil & Weikum 1993), item granularity.

    Evicts the item whose K-th most recent reference is oldest (items with
    fewer than K references are considered infinitely old and go first,
    LRU among themselves).  K = 1 degenerates to plain LRU; K = 2 is the
    classic scan-resistant configuration.  Another spatially blind Item
    Cache for the Theorem-2 experiments. *)

val create : k:int -> depth:int -> Policy.t
(** [depth] is the K of LRU-K ([>= 1]).  The reference history of the
    last [k] evicted items is retained; re-references within that window
    keep their counts. *)
