(** Intrusive recency list over integer keys.

    O(1) touch / refresh / insert / remove / LRU query; the building block
    for every recency-based policy in this library (item LRU, block LRU,
    both IBLP layers, FIFO as insert-without-touch, ARC, 2Q, S3-FIFO, LFU's
    frequency levels, LRU-K's ghosts).

    A key costs one node, which is at once its list link and its entry in
    an int-keyed hash table chained through the nodes.  The nodes and the
    bucket heads share one flat [int array] and link to each other by
    offset, so moving a node writes immediates and never passes the write
    barrier; a sentinel node ends the list and every chain, so no link is
    an [option].  [touch] and [refresh] of a present key, [mem], [size]
    and [remove] allocate nothing; inserting a key reuses a slot a removal
    freed, and the array doubles only when none is free, keeping room for
    a power of two of keys (load factor at most 2), so a full cache that
    evicts one key to admit another allocates nothing, [pop_lru]
    included.  [lru] and [mru] box their answer. *)

type t

val create : unit -> t
val size : t -> int
val mem : t -> int -> bool

val touch : t -> int -> unit
(** Insert the key at the MRU end, or move it there if present. *)

val refresh : t -> int -> bool
(** Move the key to the MRU end if present, and say whether it was; an
    absent key is not inserted.  A hit costs one lookup, where [mem] then
    [touch] costs two. *)

val insert_if_absent : t -> int -> unit
(** Insert at MRU end only if absent (FIFO semantics: no move on re-touch). *)

val add : t -> int -> unit
(** Insert a key known to be absent at the MRU end, without looking it
    up: after [refresh] or [mem] said [false], a miss costs no second
    lookup.  The key must be absent (unchecked: a present key would be
    listed twice). *)

val remove : t -> int -> unit
(** No-op if absent. *)

val lru : t -> int option
(** Least recently used key. *)

val mru : t -> int option

val pop_lru : t -> int
(** Remove and return the LRU key.  The list must not be empty
    (asserted): callers that may find it empty test {!size} first. *)

val to_list_mru_first : t -> int list
