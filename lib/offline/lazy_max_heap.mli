(** Max-heap of (priority, item) pairs with lazy invalidation.

    Offline policies repeatedly need "the cached item with the furthest next
    use"; priorities change on every re-reference, so we push fresh entries
    and discard stale ones at pop time against a caller-supplied validity
    check. *)

type t

val create : unit -> t

val push : t -> prio:int -> item:int -> unit

val pop_valid : t -> is_valid:(prio:int -> item:int -> bool) -> (int * int) option
(** Pop entries until one satisfies [is_valid]; returns [(prio, item)] or
    [None] if the heap drains. *)

val size : t -> int
